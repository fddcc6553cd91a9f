#ifndef FDM_CORE_SFDM1_H_
#define FDM_CORE_SFDM1_H_

#include <string_view>

#include "core/candidate_ladder.h"
#include "core/fairness.h"
#include "core/solution.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm {

/// SFDM1 (Algorithm 2) — `(1−ε)/4`-approximate one-pass streaming algorithm
/// for fair diversity maximization with exactly two groups.
///
/// Stream processing (`CandidateLadder`): for each guess `µ ∈ U` it
/// maintains one group-blind candidate `S_µ` (capacity `k`) and two
/// group-specific candidates `S_µ,i` (capacity `k_i`), all via the
/// Algorithm 1 insertion rule.
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
class Sfdm1 : public CandidateLadder {
 public:
  /// Creates the algorithm. The constraint must have exactly two groups
  /// with positive quotas (use SFDM2 for general `m`).
  static Result<Sfdm1> Create(const FairnessConstraint& constraint, size_t dim,
                              MetricKind metric,
                              const StreamingOptions& options);

  /// Post-processing and final selection (Algorithm 2, lines 9–18).
  /// Fails with `Infeasible` if no guess has all three candidates full
  /// (stream too small / degenerate for the constraint).
  ///
  /// Does not consume the stream state: more elements may be observed and
  /// `Solve` called again (anytime behaviour). Per-rung balancing fans
  /// out over the process-wide width (`Parallelism`; each task reads only
  /// rung `j`'s candidates and writes only slot `j`); the final best-rung
  /// selection stays a sequential ascending-µ scan with strict `>`, so
  /// output is bit-identical to the sequential path at any width.
  Result<Solution> Solve() const override;

  const FairnessConstraint& constraint() const { return constraint_; }

  /// Versioned state serialization; see `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the algorithm from a snapshot taken by `Snapshot`.
  static Result<Sfdm1> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "sfdm1";

 private:
  Sfdm1(FairnessConstraint constraint, size_t dim, MetricKind metric,
        GuessLadder ladder);

  /// Balances a copy of the group-blind candidate for guess index `j`
  /// (which must be in `U'`) and returns it; `nullopt`-like empty buffer is
  /// never returned — the caller checked membership in `U'`.
  PointBuffer BalancedCandidate(size_t j) const;

  FairnessConstraint constraint_;
};

}  // namespace fdm

#endif  // FDM_CORE_SFDM1_H_
