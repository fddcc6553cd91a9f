#ifndef FDM_DATA_DATASET_H_
#define FDM_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/check.h"
#include "util/status.h"

namespace fdm {

/// An in-memory point set with a group partition and an associated metric.
///
/// This is the *offline* representation used by generators, baselines, and
/// the experiment harness. Streaming algorithms never see a `Dataset`; they
/// consume `StreamPoint`s one at a time (see `StreamView`), which keeps the
/// one-pass discipline honest.
class Dataset {
 public:
  /// Creates an empty dataset. `dim > 0`; `num_groups >= 1`.
  Dataset(std::string name, size_t dim, int32_t num_groups, MetricKind metric)
      : name_(std::move(name)),
        dim_(dim),
        num_groups_(num_groups),
        metric_(metric) {
    FDM_CHECK(dim > 0);
    FDM_CHECK(num_groups >= 1);
  }

  /// Appends a point. `coords.size() == dim()`, `0 <= group < num_groups()`.
  void Add(std::span<const double> coords, int32_t group) {
    FDM_CHECK(coords.size() == dim_);
    FDM_CHECK(group >= 0 && group < num_groups_);
    features_.insert(features_.end(), coords.begin(), coords.end());
    groups_.push_back(group);
  }

  /// Pre-allocates storage for `n` points.
  void Reserve(size_t n) {
    features_.reserve(n * dim_);
    groups_.reserve(n);
  }

  const std::string& name() const { return name_; }
  size_t size() const { return groups_.size(); }
  size_t dim() const { return dim_; }
  int32_t num_groups() const { return num_groups_; }
  MetricKind metric_kind() const { return metric_; }
  Metric metric() const { return Metric(metric_); }

  /// Coordinates of point `i`.
  std::span<const double> Point(size_t i) const {
    FDM_DCHECK(i < size());
    return {features_.data() + i * dim_, dim_};
  }

  /// Group id of point `i`, in `[0, num_groups())`.
  int32_t GroupOf(size_t i) const {
    FDM_DCHECK(i < size());
    return groups_[i];
  }

  /// Point `i` packaged for a streaming algorithm. The id is the row index.
  StreamPoint At(size_t i) const {
    return StreamPoint{static_cast<int64_t>(i), GroupOf(i), Point(i)};
  }

  /// `rows`, in order, copied into a `PointBuffer` sized for them: the
  /// kernel block layout the offline distance scans run over.
  PointBuffer Rows(std::span<const size_t> rows) const {
    PointBuffer buffer(dim_, rows.size());
    buffer.Reserve(rows.size());
    for (const size_t row : rows) buffer.Add(At(row));
    return buffer;
  }

  /// Number of points per group (length `num_groups()`).
  std::vector<size_t> GroupSizes() const {
    std::vector<size_t> sizes(static_cast<size_t>(num_groups_), 0);
    for (const int32_t g : groups_) ++sizes[static_cast<size_t>(g)];
    return sizes;
  }

  /// Optional human-readable group names (e.g. {"female", "male"}).
  void SetGroupNames(std::vector<std::string> names) {
    FDM_CHECK(names.size() == static_cast<size_t>(num_groups_));
    group_names_ = std::move(names);
  }
  const std::vector<std::string>& group_names() const { return group_names_; }

  /// Distance between points `i` and `j` under the dataset metric.
  double Distance(size_t i, size_t j) const {
    return metric()(Point(i), Point(j));
  }

 private:
  std::string name_;
  size_t dim_;
  int32_t num_groups_;
  MetricKind metric_;
  std::vector<double> features_;  // row-major, size() * dim()
  std::vector<int32_t> groups_;
  std::vector<std::string> group_names_;
};

/// Lower/upper bounds on pairwise distances, used to build the guess ladder
/// `U` (the paper's `d_min`, `d_max`, and `∆ = d_max / d_min`).
struct DistanceBounds {
  double min = 0.0;
  double max = 0.0;

  double Spread() const { return min > 0 ? max / min : 0.0; }
};

/// Exact bounds over all distinct pairs — O(n^2); intended for `n` up to a
/// few thousand (tests, small figures). Zero distances (duplicate points)
/// are excluded from the minimum, mirroring the paper's definition over
/// *distinct* elements. The scan runs through the dispatched SIMD kernels
/// (over `Rows`) and is bit-identical to the scalar double loop on every
/// target.
DistanceBounds ComputeDistanceBoundsExact(const Dataset& dataset);

/// Sampled bounds for large datasets: distances among `sample_size` random
/// points, widened by `slack` (min divided, max multiplied). Deterministic
/// given `seed`.
///
/// Contract: the returned interval need NOT bracket the exact `d_min`
/// (sampling inherently overestimates the closest-pair distance). What the
/// streaming analyses require is that the guess ladder covers
/// `[c·OPT_f, OPT_f]` for the relevant constant `c` — and `OPT_f`, a
/// max-min value over `k ≪ n` picks, sits far above the exact closest-pair
/// distance, so the sampled minimum divided by `slack` comfortably covers
/// it. The end-to-end coverage is what the tests verify (streaming runs
/// using these estimated bounds still meet their approximation bounds
/// against GMM references).
DistanceBounds EstimateDistanceBounds(const Dataset& dataset,
                                      size_t sample_size, uint64_t seed,
                                      double slack = 4.0);

/// A random permutation of `[0, n)`; the paper evaluates each algorithm on
/// 10 random permutations of every dataset and reports averages.
std::vector<size_t> StreamOrder(size_t n, uint64_t seed);

}  // namespace fdm

#endif  // FDM_DATA_DATASET_H_
