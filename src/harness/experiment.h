#ifndef FDM_HARNESS_EXPERIMENT_H_
#define FDM_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fairness.h"
#include "data/dataset.h"
#include "obs/histogram.h"
#include "util/status.h"

namespace fdm {

/// Algorithms the experiments compare (Section V-A "Algorithms"), plus the
/// scenario sinks layered on the library (unconstrained streaming and the
/// sharded coreset driver). Each kind is resolved through the algorithm
/// registry (`harness/registry.h`) — benches and examples construct every
/// algorithm uniformly, and new scenarios plug in by registering an entry
/// rather than editing the harness.
enum class AlgorithmKind {
  kGmm,       // unconstrained greedy upper-bound reference
  kFairSwap,  // offline, m = 2 [32]
  kFairFlow,  // offline, any m [32]
  kFairGmm,   // offline, small k/m [32]
  kSfdm1,     // this paper, streaming, m = 2
  kSfdm2,     // this paper, streaming, any m
  kStreamingDm,  // Algorithm 1, streaming, unconstrained
  kSharded,      // sharded composable-coreset driver, unconstrained
  kSlidingWindow,  // checkpointed sliding-window adapter over Algorithm 1
};

std::string_view AlgorithmName(AlgorithmKind kind);

/// One experiment cell: algorithm × dataset × constraint × parameters.
struct RunConfig {
  AlgorithmKind algorithm = AlgorithmKind::kSfdm2;
  FairnessConstraint constraint;
  /// Streaming guess-ladder ε (also FairFlow's ladder step).
  double epsilon = 0.1;
  /// Seed for the stream permutation / GMM start point; varied across the
  /// repetitions of an experiment.
  uint64_t permutation_seed = 1;
  /// Distance bounds for the streaming guess ladders (ignored by offline
  /// algorithms). Must be positive for streaming runs.
  DistanceBounds bounds;
  /// Streaming ingestion: elements per `ObserveBatch` call; `0` or `1`
  /// feeds the stream per-element through `Observe`. Output is identical
  /// either way (the StreamSink contract); batching changes only the cost
  /// profile.
  size_t batch_size = 0;
  /// Threads batched ingestion spreads rungs/shards over
  /// (see `StreamingOptions::batch_threads`).
  int batch_threads = 1;
  /// Shard count for `AlgorithmKind::kSharded`.
  size_t num_shards = 4;
  /// Window length for `AlgorithmKind::kSlidingWindow`; `0` means the whole
  /// dataset (the windowed run then matches the one-pass setting).
  int64_t window_size = 0;
  /// Checkpoint replicas for `AlgorithmKind::kSlidingWindow` (coverage
  /// granularity; live instances ≤ checkpoints + 1).
  int64_t window_checkpoints = 4;
  /// Interleaved-query trace mode (streaming only): call `Solve()` after
  /// every `solve_every` ingested elements, through a `SolveCache` keyed by
  /// the sink's state version — the serving-path exercise of the
  /// incremental post-processing. `0` (default) solves only at the end.
  /// The final reported solution is unchanged either way (`Solve` is
  /// anytime and the cache is exact).
  size_t solve_every = 0;
};

/// Measured outcome of one run.
struct RunResult {
  bool ok = false;
  std::string error;
  /// Distance-kernel dispatch target the run executed under
  /// ("scalar" | "avx2" | "neon" — see `geo/simd/kernel_dispatch.h`), so
  /// recorded timings are self-describing. Dispatch never changes outputs,
  /// only throughput.
  std::string kernel_target;

  double diversity = 0.0;
  /// Offline algorithms: end-to-end solve time. Streaming: stream + post.
  double total_time_sec = 0.0;
  /// Streaming only: one-pass processing time and per-element average.
  double stream_time_sec = 0.0;
  double post_time_sec = 0.0;
  double avg_update_ms = 0.0;
  /// Streaming: distinct stored elements. Offline: n (whole dataset).
  size_t stored_elements = 0;
  /// Trace mode (`RunConfig::solve_every > 0`): mid-stream solves issued
  /// and how many were answered by the solve cache without re-running the
  /// post-processing (the state version had not moved).
  size_t intermediate_solves = 0;
  size_t solve_cache_hits = 0;
  /// Trace mode: total wall time spent in mid-stream solves (excluded from
  /// `stream_time_sec` so one-pass numbers stay comparable).
  double trace_solve_time_sec = 0.0;
  /// Trace mode: per-solve latency distribution (cached and cold solves
  /// pooled — `solve_cache_hits` separates the populations). Present in
  /// every build configuration; the histogram type is plain arithmetic and
  /// is not compiled out by `FDM_NO_METRICS`.
  obs::HistogramSnapshot trace_solve_hist;

  std::vector<int64_t> selected_ids;
};

/// Runs one algorithm once. Streaming algorithms consume the dataset in
/// the random order determined by `permutation_seed`; offline algorithms
/// get a start index derived from the same seed (the paper averages each
/// experiment over 10 such runs).
RunResult RunAlgorithm(const Dataset& dataset, const RunConfig& config);

/// Mean metrics over `runs` repetitions with seeds `1..runs`.
/// Failed repetitions are excluded from the means; `ok_runs` reports how
/// many succeeded.
struct AggregateResult {
  int ok_runs = 0;
  int total_runs = 0;
  std::string error;  // first error seen, if any
  double diversity = 0.0;
  /// Population standard deviation of the per-run diversities — the paper
  /// reports means over 10 permutations; the spread quantifies the
  /// order-sensitivity of the streaming algorithms.
  double diversity_stddev = 0.0;
  double total_time_sec = 0.0;
  double stream_time_sec = 0.0;
  double post_time_sec = 0.0;
  double avg_update_ms = 0.0;
  double stored_elements = 0.0;
};

AggregateResult RunRepeated(const Dataset& dataset, RunConfig config,
                            int runs);

/// Estimates distance bounds for a dataset once per experiment
/// (sampled, deterministic, with the slack the ladder analyses need).
DistanceBounds BoundsForExperiments(const Dataset& dataset);

}  // namespace fdm

#endif  // FDM_HARNESS_EXPERIMENT_H_
