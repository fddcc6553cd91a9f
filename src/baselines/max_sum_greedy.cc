#include "baselines/max_sum_greedy.h"

#include <limits>
#include <numeric>

#include "util/check.h"

namespace fdm {

std::vector<size_t> MaxSumGreedy(const Dataset& dataset, size_t k) {
  std::vector<size_t> selected;
  const size_t n = dataset.size();
  if (k == 0 || n == 0) return selected;
  if (k == 1) return {0};
  const Metric metric = dataset.metric();

  // Every row mirrored into the kernel block layout once: the farthest
  // pair, the sum initialization, and each incremental update are then one
  // dispatched per-point scan per row/pick instead of n scalar Metric
  // calls. Each finished entry is bit-identical to the scalar distance
  // (squared diffs are sign-insensitive), and the scans are consumed in
  // the scalar loops' exact order, so the selection is unchanged.
  std::vector<size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), size_t{0});
  const PointBuffer mirror = dataset.Rows(all_rows);
  std::vector<double> raw;

  // Farthest pair (exact, O(n^2) — illustration-scale datasets only).
  size_t best_i = 0;
  size_t best_j = 1 % n;
  double best_d = -1.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    mirror.RawDistancesToAll(dataset.Point(i), metric, raw);
    for (size_t j = i + 1; j < n; ++j) {
      const double d = metric.FinishDistance(raw[j]);
      if (d > best_d) {
        best_d = d;
        best_i = i;
        best_j = j;
      }
    }
  }
  selected = {best_i, best_j};

  // sum_dist[x] = Σ_{s ∈ selected} d(x, s), maintained incrementally.
  std::vector<double> sum_dist(n, 0.0);
  std::vector<char> in_selected(n, 0);
  in_selected[best_i] = in_selected[best_j] = 1;
  std::vector<double> raw_j;
  mirror.RawDistancesToAll(dataset.Point(best_i), metric, raw);
  mirror.RawDistancesToAll(dataset.Point(best_j), metric, raw_j);
  for (size_t x = 0; x < n; ++x) {
    sum_dist[x] =
        metric.FinishDistance(raw[x]) + metric.FinishDistance(raw_j[x]);
  }

  while (selected.size() < std::min(k, n)) {
    size_t best = n;
    double best_sum = -std::numeric_limits<double>::infinity();
    for (size_t x = 0; x < n; ++x) {
      if (in_selected[x]) continue;
      if (sum_dist[x] > best_sum) {
        best_sum = sum_dist[x];
        best = x;
      }
    }
    FDM_CHECK(best < n);
    selected.push_back(best);
    in_selected[best] = 1;
    mirror.RawDistancesToAll(dataset.Point(best), metric, raw);
    for (size_t x = 0; x < n; ++x) {
      sum_dist[x] += metric.FinishDistance(raw[x]);
    }
  }
  return selected;
}

}  // namespace fdm
