#ifndef FDM_CORE_KERNEL_WORKSPACE_H_
#define FDM_CORE_KERNEL_WORKSPACE_H_

#include <span>
#include <vector>

#include "data/dataset.h"
#include "geo/point_buffer.h"

namespace fdm {

/// The aligned AoSoA scratch mirror behind the offline Solve-path loops.
///
/// The offline algorithms (GMM's relax scans, threshold clustering, the
/// fair-augmentation ground-set scans, the offline baselines) iterate over
/// row subsets of a `Dataset` or a working set that grows and shrinks as
/// the algorithm swaps points. A `Dataset` stores rows point-major, which
/// the SIMD kernels cannot scan; this workspace mirrors the rows a Solve
/// pass will scan into `PointBuffer`'s padded 8-point block layout once,
/// so every subsequent distance loop runs through the runtime-dispatched
/// kernel table (`geo/simd/`) instead of the scalar `Metric`.
///
/// Lifetime rules:
///  * Build one workspace per Solve pass (or reuse across passes via
///    `AssignRows`, which clears first) — never across dataset mutations;
///    the mirror is a copy and does not track its source.
///  * The mirror must contain exactly the scan side of each loop: query
///    points need not be mirrored (kernels take them point-major), stored
///    points must.
///  * `RawDistancesTo` spans alias workspace-owned scratch — each call
///    invalidates the previous span, so copy rows out (or pass your own
///    vector) when two rows are needed at once.
///  * Mutations (`Append`/`RemoveLast`) keep the block padding sealed;
///    the workspace is always scannable.
///
/// Bit-exactness: per-lane kernel arithmetic is the scalar `Metric` order
/// (see kernel_types.h), so routing a loop through the workspace changes
/// which unit computes each distance, never its value — selection order is
/// preserved bit for bit, which the offline kernel-equivalence tests
/// enforce across every dispatch target.
class KernelWorkspace {
 public:
  /// `capacity` caps the mirror's growth schedule (see `PointBuffer`);
  /// rows are still appended lazily.
  explicit KernelWorkspace(size_t dim, size_t capacity = 0)
      : buffer_(dim, capacity) {}

  /// Rebuilds the mirror to hold exactly `rows` of `dataset`, in order,
  /// reserving them up front.
  void AssignRows(const Dataset& dataset, std::span<const size_t> rows) {
    buffer_.Clear();
    buffer_.Reserve(rows.size());
    for (const size_t row : rows) buffer_.Add(dataset.At(row));
  }

  /// Appends one point (e.g. a working-set insertion mid-algorithm).
  void Append(const StreamPoint& p) { buffer_.Add(p); }

  /// Removes the most recently appended point (the push/pop discipline of
  /// the branch-and-bound enumerators).
  void RemoveLast() { buffer_.RemoveSwap(buffer_.size() - 1); }

  void Clear() { buffer_.Clear(); }
  size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }

  /// The mirrored points (storage order == append order).
  const PointBuffer& points() const { return buffer_; }

  /// Raw distance from `x` to every mirrored point, in storage order (see
  /// `PointBuffer::RawDistancesToAll`): entry `i` is bit-identical to
  /// `metric.RawDistance(x, points().CoordsAt(i))`. The returned span is
  /// trimmed to `size()` and aliases internal scratch — valid until the
  /// next `RawDistancesTo` call on this workspace.
  std::span<const double> RawDistancesTo(std::span<const double> x,
                                         const Metric& metric) {
    buffer_.RawDistancesToAll(x, metric, scratch_);
    return {scratch_.data(), buffer_.size()};
  }

  /// As above, into a caller-owned vector (padded; read the first `size()`
  /// entries) — for loops that need two rows live at once.
  void RawDistancesTo(std::span<const double> x, const Metric& metric,
                      std::vector<double>& out) const {
    buffer_.RawDistancesToAll(x, metric, out);
  }

  /// Finished distance from `x` to the nearest mirrored point (+infinity
  /// when empty) — the min-reduction kernel, with early exit left to the
  /// caller's threshold discipline.
  double MinDistanceTo(std::span<const double> x, const Metric& metric) const {
    return buffer_.MinDistanceTo(x, metric);
  }

 private:
  PointBuffer buffer_;
  std::vector<double> scratch_;
};

}  // namespace fdm

#endif  // FDM_CORE_KERNEL_WORKSPACE_H_
