#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/solution.h"
#include "core/solve_cache.h"
#include "core/stream_sink.h"
#include "geo/point_buffer.h"
#include "geo/simd/kernel_dispatch.h"
#include "harness/registry.h"
#include "util/check.h"
#include "util/timer.h"

namespace fdm {

std::string_view AlgorithmName(AlgorithmKind kind) {
  const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
  return entry == nullptr ? std::string_view("unknown") : entry->name;
}

namespace {

RunResult FromSolution(const Result<Solution>& solution, double total_sec,
                       size_t n) {
  RunResult r;
  r.total_time_sec = total_sec;
  r.stored_elements = n;  // offline algorithms keep the whole dataset
  if (!solution.ok()) {
    r.error = solution.status().ToString();
    return r;
  }
  r.ok = true;
  r.diversity = solution.value().diversity;
  r.selected_ids = solution.value().Ids();
  return r;
}

RunResult RunOffline(const Dataset& dataset, const RunConfig& config,
                     const AlgorithmEntry& entry) {
  Timer timer;
  auto solution = entry.solve(dataset, config);
  return FromSolution(solution, timer.ElapsedSeconds(), dataset.size());
}

RunResult RunStreaming(const Dataset& dataset, const RunConfig& config,
                       const AlgorithmEntry& entry) {
  RunResult r;
  auto created = entry.make_sink(dataset, config);
  if (!created.ok()) {
    r.error = created.status().ToString();
    return r;
  }
  StreamSink& sink = *created.value();
  const std::vector<size_t> order =
      StreamOrder(dataset.size(), config.permutation_seed);

  Timer stream_timer;
  if (config.solve_every == 0) {
    IngestStream(sink, dataset, order, config.batch_size);
    r.stream_time_sec = stream_timer.ElapsedSeconds();
  } else {
    // Interleaved-query trace: ingest in `solve_every`-element slices
    // (each fed through the configured batch size) and query after every
    // slice, through a version-keyed SolveCache — the same incremental
    // path the serving layer uses. Solve time is tracked separately so the
    // one-pass stream cost stays comparable to non-traced runs.
    SolveCache cache;
    double solve_sec = 0.0;
    size_t fed = 0;
    while (fed < order.size()) {
      const size_t slice = std::min(config.solve_every, order.size() - fed);
      IngestStream(sink, dataset,
                   std::span<const size_t>(order).subspan(fed, slice),
                   config.batch_size);
      fed += slice;
      Timer solve_timer;
      (void)cache.GetOrCompute(sink.StateVersion(),
                               [&sink] { return sink.Solve(); });
      r.trace_solve_hist.Record(
          static_cast<uint64_t>(solve_timer.ElapsedNanos()));
      solve_sec += solve_timer.ElapsedSeconds();
      ++r.intermediate_solves;
    }
    r.trace_solve_time_sec = solve_sec;
    r.solve_cache_hits = static_cast<size_t>(cache.GetStats().hits);
    r.stream_time_sec = stream_timer.ElapsedSeconds() - solve_sec;
  }

  Timer post_timer;
  auto solution = sink.Solve();
  r.post_time_sec = post_timer.ElapsedSeconds();
  r.total_time_sec = r.stream_time_sec + r.post_time_sec;
  r.avg_update_ms = dataset.size() > 0
                        ? 1e3 * r.stream_time_sec /
                              static_cast<double>(dataset.size())
                        : 0.0;
  r.stored_elements = sink.StoredElements();
  if (!solution.ok()) {
    r.error = solution.status().ToString();
    return r;
  }
  r.ok = true;
  r.diversity = solution.value().diversity;
  r.selected_ids = solution.value().Ids();
  return r;
}

}  // namespace

RunResult RunAlgorithm(const Dataset& dataset, const RunConfig& config) {
  FDM_CHECK(dataset.size() > 0);
  const AlgorithmEntry* entry =
      AlgorithmRegistry::Instance().Find(config.algorithm);
  FDM_CHECK_MSG(entry != nullptr, "algorithm kind not registered");
  RunResult r = entry->streaming ? RunStreaming(dataset, config, *entry)
                                 : RunOffline(dataset, config, *entry);
  r.kernel_target = std::string(simd::ActiveKernelName());
  return r;
}

AggregateResult RunRepeated(const Dataset& dataset, RunConfig config,
                            int runs) {
  AggregateResult agg;
  agg.total_runs = runs;
  double diversity_sq_sum = 0.0;
  for (int rep = 1; rep <= runs; ++rep) {
    config.permutation_seed = static_cast<uint64_t>(rep);
    const RunResult r = RunAlgorithm(dataset, config);
    if (!r.ok) {
      if (agg.error.empty()) agg.error = r.error;
      continue;
    }
    ++agg.ok_runs;
    agg.diversity += r.diversity;
    diversity_sq_sum += r.diversity * r.diversity;
    agg.total_time_sec += r.total_time_sec;
    agg.stream_time_sec += r.stream_time_sec;
    agg.post_time_sec += r.post_time_sec;
    agg.avg_update_ms += r.avg_update_ms;
    agg.stored_elements += static_cast<double>(r.stored_elements);
  }
  if (agg.ok_runs > 0) {
    const double d = agg.ok_runs;
    agg.diversity /= d;
    const double variance =
        diversity_sq_sum / d - agg.diversity * agg.diversity;
    agg.diversity_stddev = variance > 0.0 ? std::sqrt(variance) : 0.0;
    agg.total_time_sec /= d;
    agg.stream_time_sec /= d;
    agg.post_time_sec /= d;
    agg.avg_update_ms /= d;
    agg.stored_elements /= d;
  }
  return agg;
}

DistanceBounds BoundsForExperiments(const Dataset& dataset) {
  return EstimateDistanceBounds(dataset, /*sample_size=*/1500,
                                /*seed=*/0x5eedb07d5ULL, /*slack=*/2.0);
}

}  // namespace fdm
