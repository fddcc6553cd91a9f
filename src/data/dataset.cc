#include "data/dataset.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "util/rng.h"

namespace fdm {

namespace {

/// The shared O(|rows|²) min/max scan behind both bounds functions, run
/// over a `PointBuffer` of the rows so the distances come out of the
/// dispatched SIMD kernels instead of the scalar `Metric`. Row `i`'s scan
/// consults only the upper triangle (`j > i`) in the scalar loop's exact
/// `(i, j)` order, and each finished entry is bit-identical to
/// `metric(Point(rows[i]), Point(rows[j]))` — so the returned extrema (and
/// therefore every guess ladder derived from them) match the scalar double
/// loop bit for bit.
DistanceBounds PairwiseExtrema(const Dataset& dataset,
                               std::span<const size_t> rows) {
  const Metric metric = dataset.metric();
  DistanceBounds bounds;
  bounds.min = std::numeric_limits<double>::infinity();
  bounds.max = 0.0;
  const PointBuffer mirror = dataset.Rows(rows);
  std::vector<double> raw;
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    mirror.RawDistancesToAll(dataset.Point(rows[i]), metric, raw);
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const double d = metric.FinishDistance(raw[j]);
      if (d > 0.0 && d < bounds.min) bounds.min = d;
      if (d > bounds.max) bounds.max = d;
    }
  }
  return bounds;
}

}  // namespace

DistanceBounds ComputeDistanceBoundsExact(const Dataset& dataset) {
  std::vector<size_t> rows(dataset.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  DistanceBounds bounds = PairwiseExtrema(dataset, rows);
  if (!std::isfinite(bounds.min)) bounds.min = bounds.max;
  return bounds;
}

DistanceBounds EstimateDistanceBounds(const Dataset& dataset,
                                      size_t sample_size, uint64_t seed,
                                      double slack) {
  const size_t n = dataset.size();
  if (n <= sample_size || n <= 2048) {
    DistanceBounds exact = ComputeDistanceBoundsExact(dataset);
    // No slack needed: the bounds are exact.
    return exact;
  }
  Rng rng(seed);
  std::vector<size_t> sample(sample_size);
  for (auto& s : sample) s = static_cast<size_t>(rng.NextBounded(n));
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  const DistanceBounds extrema = PairwiseExtrema(dataset, sample);
  double min_d = extrema.min;
  double max_d = extrema.max;
  if (!std::isfinite(min_d)) min_d = max_d > 0 ? max_d : 1.0;
  if (max_d == 0.0) max_d = 1.0;
  // Widen: sampling overestimates the closest-pair distance and slightly
  // underestimates the diameter; the slack keeps the guess ladder covering
  // the interval that Lemma 1 / Theorem 4 need (see the contract in the
  // header). Extra ladder rungs only cost O(log(slack)/ε) candidates each.
  return DistanceBounds{min_d / slack, max_d * slack};
}

std::vector<size_t> StreamOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(seed);
  rng.Shuffle(order);
  return order;
}

}  // namespace fdm
