#include "core/clustering.h"

#include <vector>

#include "util/union_find.h"

namespace fdm {

std::vector<int> ThresholdClusters(const PointBuffer& points,
                                   const Metric& metric, double threshold) {
  const int l = static_cast<int>(points.size());
  UnionFind uf(l);
  // Row-at-a-time through the dispatched per-point kernel: one scan yields
  // the raw distances from point `i` to everything, and only the upper
  // triangle (`j > i`) is consulted. The scalar loop skipped already-
  // connected pairs; computing their distances anyway cannot change the
  // partition (a `d < threshold` union of connected elements is a no-op,
  // and `DenseLabels` is partition-invariant), so the output is identical.
  std::vector<double> raw;
  std::vector<double> row(points.dim());  // point `i`, gathered
  for (int i = 0; i + 1 < l; ++i) {
    points.RawDistancesToAll(
        points.GatherCoords(static_cast<size_t>(i), row), metric, raw);
    for (int j = i + 1; j < l; ++j) {
      if (uf.Connected(i, j)) continue;
      const double d = metric.FinishDistance(raw[static_cast<size_t>(j)]);
      if (d < threshold) uf.Union(i, j);
    }
  }
  return uf.DenseLabels();
}

}  // namespace fdm
