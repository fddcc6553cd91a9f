#ifndef FDM_CORE_SFDM2_H_
#define FDM_CORE_SFDM2_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fairness.h"
#include "core/guess_ladder.h"
#include "core/solution.h"
#include "core/stream_sink.h"
#include "core/streaming_candidate.h"
#include "core/streaming_dm.h"
#include "geo/metric.h"
#include "util/status.h"

namespace fdm {

/// SFDM2 (Algorithm 3) — `(1−ε)/(3m+2)`-approximate one-pass streaming
/// algorithm for fair diversity maximization with an arbitrary number of
/// groups.
///
/// Stream processing: like SFDM1, but every group-specific candidate has
/// capacity `k` (not `k_i`) — the extra elements are the donor pool the
/// post-processing draws from.
///
/// Post-processing (`Solve`), per guess `µ` with `|S_µ| = k` and
/// `|S_µ,i| ≥ k_i` for all groups:
///   1. extract a partial solution `S'_µ` from `S_µ` (cap each group's
///      contribution at `k_i`);
///   2. cluster all retained elements at threshold `µ/(m+1)`
///      (single-linkage; Lemma 3 bounds each cluster to one element per
///      candidate and diameter `< µ·m/(m+1)`);
///   3. augment `S'_µ` to a maximum-cardinality common independent set of
///      the fairness partition matroid and the cluster partition matroid
///      via Algorithm 4 (greedy farthest-first inserts, then Cunningham
///      augmenting paths);
///   4. keep the size-`k` result of maximum diversity (`≥ µ/(m+1)` by
///      Lemma 4 whenever `OPT_f ≥ µ·(3m+2)/(m+1)`).
///
/// Costs (Theorem 5): `O(k log∆/ε)` time per element,
/// `O(k²·m·log∆/ε·(m + log²k))` post-processing, `O(km log∆/ε)` stored
/// elements.
class Sfdm2 : public StreamSink {
 public:
  /// Creates the algorithm for any `m >= 1` constraint.
  static Result<Sfdm2> Create(const FairnessConstraint& constraint, size_t dim,
                              MetricKind metric,
                              const StreamingOptions& options);

  /// Processes one stream element (Algorithm 3, lines 3–8). Touches only
  /// the group-blind candidate and the element's own group candidate per
  /// guess. Returns true iff any candidate kept the element.
  bool Observe(const StreamPoint& point) override;

  /// Batched ingestion: rung `j`'s candidates (`S_µj` and `S_µj,i` for all
  /// `i`) are touched only by rung `j`'s task, which replays the batch in
  /// stream order — bit-identical to per-element `Observe`, fanned out
  /// over the process-wide width (`Parallelism`).
  size_t ObserveBatch(std::span<const StreamPoint> batch) override;

  /// Advances by the number of successful candidate insertions
  /// (chunking-invariant; see `StreamSink::StateVersion`).
  uint64_t StateVersion() const override { return state_version_; }

  /// Post-processing and final selection (Algorithm 3, lines 9–19).
  /// Fails with `Infeasible` if no guess yields a size-`k` fair solution.
  ///
  /// Incremental between calls: the expensive per-guess post-processing
  /// (ground-set assembly, threshold clustering, matroid-intersection
  /// augmentation) is memoized per rung, keyed by a per-rung mutation
  /// counter. A rung whose candidates did not change since the last call
  /// reuses its cached result; only dirty rungs are re-processed — and
  /// they are re-processed *from scratch*, because the ground-set ordering
  /// feeds tie-breaking in the greedy augmentation, so patching retained
  /// cluster structures in place could produce a different (equally fair)
  /// solution than a fresh replay. Memoization at rung granularity is the
  /// coarsest split that keeps the output bit-identical to an
  /// uninterrupted from-scratch `Solve()` at every stream prefix.
  ///
  /// Internally rung-parallel: dirty rungs fan out over the process-wide
  /// width (`Parallelism`; each task fills only its own `rung_solve_[j]`
  /// memo slot and builds its own `KernelWorkspace` scratch), while the
  /// final best-rung selection stays a sequential ascending-µ scan with
  /// strict `>` — so output is bit-identical to the sequential path at any
  /// width.
  ///
  /// `Solve()` stays logically const (the memo is mutable scratch), but
  /// concurrent *calls* must still be externally serialized — two
  /// unsynchronized callers would race on the memo slots. `SolveCache`
  /// (core/solve_cache.h) does this in the service layer; everything else
  /// issues one `Solve()` at a time and lets the rung fan-out use the
  /// threads.
  Result<Solution> Solve() const override;

  /// Distinct elements stored across all candidates (space-usage measure).
  size_t StoredElements() const override;

  int64_t ObservedElements() const override { return observed_; }
  const GuessLadder& ladder() const { return ladder_; }
  const FairnessConstraint& constraint() const { return constraint_; }

  /// Versioned state serialization (including the ablation knobs); see
  /// `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the algorithm from a snapshot taken by `Snapshot`.
  static Result<Sfdm2> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "sfdm2";

  /// Ablation knobs for the two post-processing design choices the paper
  /// credits for SFDM2's practical edge over FairFlow (Section IV-B:
  /// "initializes with a partial solution instead of ∅ for higher
  /// efficiency and adds elements greedily like GMM for higher
  /// diversity"). Defaults reproduce the paper; the ablation bench flips
  /// them to quantify each choice. Flipping a knob changes what `Solve()`
  /// computes, so it advances the state version and drops the
  /// post-processing memo (the `StateVersion` contract — equal versions
  /// imply identical output — must survive reconfiguration).
  void set_warm_start(bool on) {
    if (warm_start_ == on) return;
    warm_start_ = on;
    InvalidatePostprocess();
  }
  void set_greedy_augmentation(bool on) {
    if (greedy_augmentation_ == on) return;
    greedy_augmentation_ = on;
    InvalidatePostprocess();
  }
  bool warm_start() const { return warm_start_; }
  bool greedy_augmentation() const { return greedy_augmentation_; }

 private:
  Sfdm2(FairnessConstraint constraint, size_t dim, MetricKind metric,
        GuessLadder ladder);

  /// One memoized per-guess post-processing outcome (see `Solve`). It
  /// keeps references into rung `j`'s candidates, not a copy of the
  /// solution. They stay valid because candidates only ever append, any
  /// insert into rung `j` bumps `rung_version_[j]` (so the entry is
  /// recomputed before it is read again), and a restore starts from an
  /// empty memo.
  struct RungSolve {
    bool computed = false;
    /// `rung_version_[j]` at compute time; a mismatch marks the rung dirty.
    uint64_t version = 0;
    /// `div` of the rung's size-`k` fair solution (when `picks` is set).
    double diversity = 0.0;
    /// The solution's elements in selection order, as (candidate slot,
    /// position) pairs — see `RungCandidate` for the slots. Empty when the
    /// rung was not eligible / could not be augmented to size `k`.
    std::vector<std::pair<uint32_t, uint32_t>> picks;
  };

  /// Runs the full Algorithm 3 post-processing (lines 10–18) for guess
  /// index `j`, leaving its outcome in `memo.picks` and `memo.diversity`.
  void SolveRung(size_t j, RungSolve& memo) const;

  /// Rung `j`'s candidate in `slot`: 0 is `S_µj`, `g + 1` is `S_µj,g`.
  const PointBuffer& RungCandidate(size_t j, size_t slot) const {
    return slot == 0 ? blind_[j].points()
                     : specific_[(slot - 1) * ladder_.size() + j].points();
  }

  /// Drops every memoized rung result and advances the state version
  /// (used when a reconfiguration changes what `Solve` would compute).
  void InvalidatePostprocess() {
    ++state_version_;
    for (RungSolve& entry : rung_solve_) entry.computed = false;
  }

  FairnessConstraint constraint_;
  int k_;
  int m_;
  size_t dim_;
  Metric metric_;
  GuessLadder ladder_;
  std::vector<StreamingCandidate> blind_;  // S_µ, capacity k, per rung
  // specific_[i * ladder_.size() + j] = S_µj,i, capacity k.
  std::vector<StreamingCandidate> specific_;
  PackedBatch packed_;  // batch repack scratch, reused across batches
  std::vector<std::vector<size_t>> by_group_;  // per-group positions scratch
  std::vector<size_t> rung_kept_;  // per-rung batch insert counts scratch
  int64_t observed_ = 0;
  bool warm_start_ = true;
  bool greedy_augmentation_ = true;
  uint64_t state_version_ = 0;
  /// Per-rung mutation counters (insertions into `S_µj` or any `S_µj,i`);
  /// `state_version_` is their running sum. Not serialized: the memo below
  /// is in-memory only, so a restored sink starts with fresh counters and
  /// an empty memo, which is always consistent.
  std::vector<uint64_t> rung_version_;
  mutable std::vector<RungSolve> rung_solve_;  // post-processing memo
};

}  // namespace fdm

#endif  // FDM_CORE_SFDM2_H_
