#ifndef FDM_CORE_BATCH_REPLAY_H_
#define FDM_CORE_BATCH_REPLAY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/parallelism.h"
#include "core/streaming_candidate.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "obs/metrics.h"
#ifndef FDM_NO_METRICS
#include <atomic>
#include <chrono>
#endif

namespace fdm {

/// The rung-major batched replay engine shared by the fair fixed-ladder
/// algorithms (SFDM1 is the `m = 2` special case of SFDM2's layout, they
/// differ only in how candidates are addressed — hence the accessors).
///
/// Task `j` owns rung `j`'s candidates — the group-blind `S_µj` and one
/// `S_µj,i` per group — and replays the batch into each in stream order
/// through `TryAddBatch`, which front-loads the batch's distance scans
/// against the candidate's pre-batch contents into one SIMD pass over the
/// stored blocks; per-candidate state still evolves exactly as under
/// per-element `Observe` (admission decisions depend only on that
/// candidate's own contents, and the batched form is decision-identical).
/// Rungs never share state, so fanning them out over the process-wide width
/// (`Parallelism`, core/parallelism.h) is exact. A full candidate is
/// skipped with one check per batch (full is permanent).
///
/// `by_group[g]` lists the batch positions holding group-`g` elements
/// (computed once by the caller, read-only here); `blind_at(j)` and
/// `specific_at(g, j)` return references into the caller's candidate
/// storage.
///
/// `rung_kept[j]` (caller-owned, length `rungs`) receives the number of
/// successful insertions rung `j` performed across its candidates. Each
/// task writes only its own slot, so the array is race-free; because the
/// per-candidate `TryAdd` sequence is identical to per-element `Observe`,
/// the counts are chunking-invariant — they feed the rung-level and
/// sink-level state versions that key the incremental query path.
///
/// The query path mirrors this determinism contract exactly, on the same
/// width and pool: a parallel `Solve()` fans its per-rung (or per-shard)
/// post-processing out with task `j` owning rung `j`'s inputs and writing
/// only slot `j` of the result array — each task
/// builds its own scratch (`KernelWorkspace` mirrors included) — while
/// the final best-rung selection stays a sequential ascending-index scan
/// with strict `>`. Ingest-side rung parallelism is thus bit-identical to
/// per-element processing, and solve-side rung parallelism bit-identical
/// to the sequential solve, for the same structural reason: rungs share
/// no state, and every cross-rung decision happens in one fixed order.
template <typename BlindAt, typename SpecificAt>
void ReplayBatchRungMajor(size_t rungs, int num_groups,
                          std::span<const StreamPoint> batch,
                          const std::vector<size_t>* by_group,
                          const Metric& metric, BlindAt&& blind_at,
                          SpecificAt&& specific_at, size_t* rung_kept) {
#ifndef FDM_NO_METRICS
  // Per-rung admission-scan latency, sampled 1 batch in 16: always-on
  // timing would read the clock twice per rung per batch (~80 rungs × two
  // ~25ns reads ≈ 10% of a small batch's work), which the micro_obs
  // overhead gate would fail. Sampling keeps the distribution honest —
  // rung choice is not correlated with the batch counter — at amortized
  // sub-1% cost.
  static std::atomic<uint64_t> batch_seq{0};
  const bool sampled =
      (batch_seq.fetch_add(1, std::memory_order_relaxed) & 0xF) == 0;
  static obs::Histogram& rung_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "fdm_ingest_rung_scan_ns",
          "per-rung admission-scan latency per batch (1/16 sampled)");
#endif
  Parallelism::Run(rungs, [&](size_t j) {
#ifndef FDM_NO_METRICS
    // Clock reads only on sampled batches — an unconditional timer would
    // reintroduce the per-rung cost the sampling exists to avoid.
    std::chrono::steady_clock::time_point rung_start;
    if (sampled) rung_start = std::chrono::steady_clock::now();
#endif
    size_t kept = 0;
    StreamingCandidate& blind = blind_at(j);
    if (!blind.Full()) {
      kept += blind.TryAddBatch(batch, metric);
    }
    for (int g = 0; g < num_groups; ++g) {
      StreamingCandidate& candidate = specific_at(g, j);
      if (candidate.Full()) continue;
      kept += candidate.TryAddBatchIndexed(batch, by_group[g], metric);
    }
    rung_kept[j] = kept;
#ifndef FDM_NO_METRICS
    if (sampled) {
      rung_hist.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - rung_start)
              .count()));
    }
#endif
  });
}

}  // namespace fdm

#endif  // FDM_CORE_BATCH_REPLAY_H_
