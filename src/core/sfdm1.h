#ifndef FDM_CORE_SFDM1_H_
#define FDM_CORE_SFDM1_H_

#include <span>
#include <string_view>
#include <vector>

#include "core/fairness.h"
#include "core/guess_ladder.h"
#include "core/solution.h"
#include "core/stream_sink.h"
#include "core/streaming_candidate.h"
#include "core/streaming_dm.h"
#include "geo/metric.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fdm {

/// SFDM1 (Algorithm 2) — `(1−ε)/4`-approximate one-pass streaming algorithm
/// for fair diversity maximization with exactly two groups.
///
/// Stream processing: for each guess `µ ∈ U` it maintains one group-blind
/// candidate `S_µ` (capacity `k`) and two group-specific candidates
/// `S_µ,i` (capacity `k_i`), all via the Algorithm 1 insertion rule.
///
/// Post-processing (`Solve`): on every `µ` whose three candidates are full,
/// the group-blind candidate is balanced — elements of the under-filled
/// group are inserted greedily (farthest from the same-group selection
/// first, mirroring GMM) from its group-specific candidate, then elements
/// of the over-filled group closest to the under-filled side are deleted —
/// and the balanced candidate of maximum diversity wins (Lemma 2
/// guarantees `div ≥ µ/2` after balancing).
///
/// Costs (Theorem 3): `O(k log∆/ε)` time per element, `O(k² log∆/ε)`
/// post-processing, `O(k log∆/ε)` stored elements.
class Sfdm1 : public StreamSink {
 public:
  /// Creates the algorithm. The constraint must have exactly two groups
  /// with positive quotas (use SFDM2 for general `m`).
  static Result<Sfdm1> Create(const FairnessConstraint& constraint, size_t dim,
                              MetricKind metric,
                              const StreamingOptions& options);

  /// Processes one stream element (Algorithm 2, lines 3–8). Returns true
  /// iff any candidate kept the element.
  bool Observe(const StreamPoint& point) override;

  /// Batched ingestion: rung `j`'s three candidates (`S_µj`, `S_µj,0`,
  /// `S_µj,1`) are touched only by rung `j`'s task, which replays the
  /// batch in stream order — bit-identical to per-element `Observe`,
  /// partitioned over `batch_threads`.
  size_t ObserveBatch(std::span<const StreamPoint> batch) override;

  /// Advances by the number of successful candidate insertions
  /// (chunking-invariant; see `StreamSink::StateVersion`).
  uint64_t StateVersion() const override { return state_version_; }

  /// Post-processing and final selection (Algorithm 2, lines 9–18).
  /// Fails with `Infeasible` if no guess has all three candidates full
  /// (stream too small / degenerate for the constraint).
  ///
  /// Does not consume the stream state: more elements may be observed and
  /// `Solve` called again (anytime behaviour). Per-rung balancing fans
  /// out over the process-wide solve width (`SolveParallelism`; each task
  /// reads only rung `j`'s candidates and writes only slot `j`); the final
  /// best-rung selection stays a sequential ascending-µ scan with strict
  /// `>`, so output is bit-identical to the sequential path at any width.
  Result<Solution> Solve() const override;

  /// Distinct elements stored across all candidates (space-usage measure).
  size_t StoredElements() const override;

  int64_t ObservedElements() const override { return observed_; }
  const GuessLadder& ladder() const { return ladder_; }
  const FairnessConstraint& constraint() const { return constraint_; }

  /// Versioned state serialization; see `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the algorithm from a snapshot taken by `Snapshot`.
  static Result<Sfdm1> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "sfdm1";

 private:
  Sfdm1(FairnessConstraint constraint, size_t dim, MetricKind metric,
        GuessLadder ladder, int batch_threads);

  /// Balances a copy of the group-blind candidate for guess index `j`
  /// (which must be in `U'`) and returns it; `nullopt`-like empty buffer is
  /// never returned — the caller checked membership in `U'`.
  PointBuffer BalancedCandidate(size_t j) const;

  FairnessConstraint constraint_;
  int k_;
  size_t dim_;
  Metric metric_;
  GuessLadder ladder_;
  std::vector<StreamingCandidate> blind_;      // S_µ, capacity k
  std::vector<StreamingCandidate> specific_[2];  // S_µ,i, capacity k_i
  BatchParallelism parallelism_;
  PackedBatch packed_;  // batch repack scratch, reused across batches
  std::vector<size_t> by_group_[2];  // per-group positions scratch
  std::vector<size_t> rung_kept_;    // per-rung batch insert counts scratch
  int64_t observed_ = 0;
  uint64_t state_version_ = 0;
};

}  // namespace fdm

#endif  // FDM_CORE_SFDM1_H_
