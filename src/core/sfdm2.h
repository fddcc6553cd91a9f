#ifndef FDM_CORE_SFDM2_H_
#define FDM_CORE_SFDM2_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/candidate_ladder.h"
#include "core/fairness.h"
#include "core/solution.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm {

/// SFDM2 (Algorithm 3) — `(1−ε)/(3m+2)`-approximate one-pass streaming
/// algorithm for fair diversity maximization with an arbitrary number of
/// groups.
///
/// Stream processing (`CandidateLadder`): like SFDM1, but every
/// group-specific candidate has capacity `k` (not `k_i`) — the extra
/// elements are the donor pool the post-processing draws from.
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
class Sfdm2 : public CandidateLadder {
 public:
  /// Creates the algorithm for any `m >= 1` constraint.
  static Result<Sfdm2> Create(const FairnessConstraint& constraint, size_t dim,
                              MetricKind metric,
                              const StreamingOptions& options);

  /// Post-processing and final selection (Algorithm 3, lines 9–19).
  /// Fails with `Infeasible` if no guess yields a size-`k` fair solution.
  ///
  /// Incremental between calls: the expensive per-guess post-processing
  /// (ground-set assembly, threshold clustering, matroid-intersection
  /// augmentation) is memoized per rung, keyed by the ladder's per-rung
  /// insert count. A rung whose candidates did not change since the last
  /// call reuses its cached result; only dirty rungs are re-processed — and
  /// they are re-processed *from scratch*, because the ground-set ordering
  /// feeds tie-breaking in the greedy augmentation, so patching retained
  /// cluster structures in place could produce a different (equally fair)
  /// solution than a fresh replay. Memoization at rung granularity is the
  /// coarsest split that keeps the output bit-identical to an
  /// uninterrupted from-scratch `Solve()` at every stream prefix.
  ///
  /// Internally rung-parallel: dirty rungs fan out over the process-wide
  /// width (`Parallelism`; each task fills only its own `rung_solve_[j]`
  /// memo slot and builds its own kernel mirrors), while the
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
  /// insert into rung `j` bumps `rung_inserts(j)` (so the entry is
  /// recomputed before it is read again), and a restore starts from an
  /// empty memo.
  struct RungSolve {
    bool computed = false;
    /// `rung_inserts(j)` at compute time; a mismatch marks the rung dirty.
    uint64_t version = 0;
    /// `div` of the rung's size-`k` fair solution (when `picks` is set).
    double diversity = 0.0;
    /// The solution's elements in selection order, as (candidate slot,
    /// position) pairs — see `RungCandidate` for the slots. Empty when the
    /// rung was not eligible / could not be augmented to size `k`; its
    /// capacity is reserved once, at `k`, and kept across recomputes.
    std::vector<std::pair<uint32_t, uint32_t>> picks;
  };

  /// Runs the full Algorithm 3 post-processing (lines 10–18) for guess
  /// index `j`, leaving its outcome in `memo.picks` and `memo.diversity`.
  void SolveRung(size_t j, RungSolve& memo) const;

  /// Rung `j`'s candidate in `slot`: 0 is `S_µj`, `g + 1` is `S_µj,g`.
  CandidatePoints RungCandidate(size_t j, size_t slot) const {
    return Points(slot == 0 ? blind(j)
                            : specific(static_cast<int>(slot) - 1, j));
  }

  /// Drops every memoized rung result and advances the state version
  /// (used when a reconfiguration changes what `Solve` would compute).
  void InvalidatePostprocess() {
    BumpStateVersion();
    for (RungSolve& entry : rung_solve_) entry.computed = false;
  }

  FairnessConstraint constraint_;
  bool warm_start_ = true;
  bool greedy_augmentation_ = true;
  mutable std::vector<RungSolve> rung_solve_;  // post-processing memo
};

}  // namespace fdm

#endif  // FDM_CORE_SFDM2_H_
