#include "core/gmm.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "util/check.h"

namespace fdm {

std::vector<size_t> GreedyGmm(const Dataset& dataset,
                              std::span<const size_t> universe, size_t k,
                              std::span<const size_t> warm_start,
                              size_t start_index) {
  std::vector<size_t> selected;
  if (k == 0 || universe.empty()) return selected;
  const Metric metric = dataset.metric();
  constexpr double kExcluded = -std::numeric_limits<double>::infinity();

  // d(x, selected ∪ warm_start) for every universe row, updated
  // incrementally — the standard O(|universe|·k) farthest-first traversal.
  // Excluded (already chosen) positions are pinned to -infinity.
  std::vector<double> distance(universe.size(),
                               std::numeric_limits<double>::infinity());
  const std::unordered_set<size_t> warm(warm_start.begin(), warm_start.end());
  for (size_t i = 0; i < universe.size(); ++i) {
    if (warm.count(universe[i]) > 0) distance[i] = kExcluded;
  }
  // The universe mirrored into the kernel block layout once per call: each
  // relax pass is then one dispatched per-point scan (raw distances from
  // the picked row to every universe row) instead of |universe| scalar
  // Metric calls. Entry `i` of the scan is bit-identical to
  // `metric.RawDistance(universe[i], row)` — same per-lane arithmetic
  // order, and the squared diffs are sign-insensitive — so finishing it
  // reproduces the scalar relaxation value bit for bit and the
  // farthest-first selection order is unchanged.
  const PointBuffer mirror = dataset.Rows(universe);
  std::vector<double> raw;
  auto relax_against = [&](size_t row) {
    mirror.RawDistancesToAll(dataset.Point(row), metric, raw);
    for (size_t i = 0; i < universe.size(); ++i) {
      if (distance[i] == kExcluded) continue;
      const double d = metric.FinishDistance(raw[i]);
      if (d < distance[i]) distance[i] = d;
    }
  };
  for (const size_t row : warm_start) relax_against(row);

  selected.reserve(std::min(k, universe.size()));
  while (selected.size() < k) {
    size_t pick_pos = universe.size();
    if (selected.empty() && warm_start.empty()) {
      FDM_CHECK(start_index < universe.size());
      pick_pos = start_index;
    } else {
      double best = kExcluded;
      for (size_t i = 0; i < universe.size(); ++i) {
        if (distance[i] > best) {
          best = distance[i];
          pick_pos = i;
        }
      }
      // Everything selectable is exhausted (duplicate coordinates keep
      // distance 0 and stay selectable; only exclusion stops us).
      if (pick_pos == universe.size() || best == kExcluded) break;
    }
    const size_t row = universe[pick_pos];
    selected.push_back(row);
    distance[pick_pos] = kExcluded;
    relax_against(row);
  }
  return selected;
}

std::vector<size_t> GreedyGmm(const Dataset& dataset, size_t k) {
  std::vector<size_t> universe(dataset.size());
  for (size_t i = 0; i < universe.size(); ++i) universe[i] = i;
  return GreedyGmm(dataset, universe, k);
}

std::vector<size_t> RowsOfGroup(const Dataset& dataset, int32_t group) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.GroupOf(i) == group) rows.push_back(i);
  }
  return rows;
}

}  // namespace fdm
