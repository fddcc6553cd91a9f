#include "core/diversity.h"

#include <limits>
#include <vector>

#include "util/check.h"

namespace fdm {

// The pairwise reductions walk row `i`'s dispatched per-point scan and
// consult only the upper triangle (`j > i`), in the scalar loop's exact
// `(i, j)` order — each finished entry is bit-identical to
// `metric(point_i, point_j)`, so minima and sums match the scalar loops
// bit for bit. Self-distances (and the `j < i` half) are computed but
// never read.

double MinPairwiseDistance(const PointBuffer& buffer, const Metric& metric) {
  const size_t n = buffer.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> raw;
  std::vector<double> row(buffer.dim());  // point `i`, gathered
  for (size_t i = 0; i + 1 < n; ++i) {
    buffer.RawDistancesToAll(buffer.GatherCoords(i, row), metric, raw);
    for (size_t j = i + 1; j < n; ++j) {
      const double d = metric.FinishDistance(raw[j]);
      if (d < best) best = d;
    }
  }
  return best;
}

double MinPairwiseDistance(const Dataset& dataset,
                           std::span<const size_t> indices) {
  const Metric metric = dataset.metric();
  double best = std::numeric_limits<double>::infinity();
  if (indices.size() < 2) return best;
  const PointBuffer mirror = dataset.Rows(indices);
  std::vector<double> raw;
  for (size_t i = 0; i + 1 < indices.size(); ++i) {
    mirror.RawDistancesToAll(dataset.Point(indices[i]), metric, raw);
    for (size_t j = i + 1; j < indices.size(); ++j) {
      const double d = metric.FinishDistance(raw[j]);
      if (d < best) best = d;
    }
  }
  return best;
}

double SumPairwiseDistance(const Dataset& dataset,
                           std::span<const size_t> indices) {
  const Metric metric = dataset.metric();
  double sum = 0.0;
  if (indices.size() < 2) return sum;
  const PointBuffer mirror = dataset.Rows(indices);
  std::vector<double> raw;
  for (size_t i = 0; i + 1 < indices.size(); ++i) {
    mirror.RawDistancesToAll(dataset.Point(indices[i]), metric, raw);
    for (size_t j = i + 1; j < indices.size(); ++j) {
      sum += metric.FinishDistance(raw[j]);
    }
  }
  return sum;
}

std::vector<int> GroupCounts(const PointBuffer& buffer, int num_groups) {
  FDM_CHECK(num_groups >= 1);
  std::vector<int> counts(static_cast<size_t>(num_groups), 0);
  for (size_t i = 0; i < buffer.size(); ++i) {
    const int32_t g = buffer.GroupAt(i);
    FDM_CHECK(g >= 0 && g < num_groups);
    ++counts[static_cast<size_t>(g)];
  }
  return counts;
}

bool SatisfiesQuotas(const PointBuffer& buffer, std::span<const int> quotas) {
  const std::vector<int> counts =
      GroupCounts(buffer, static_cast<int>(quotas.size()));
  for (size_t i = 0; i < quotas.size(); ++i) {
    if (counts[i] != quotas[i]) return false;
  }
  return true;
}

}  // namespace fdm
