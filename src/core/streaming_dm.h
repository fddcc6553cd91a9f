#ifndef FDM_CORE_STREAMING_DM_H_
#define FDM_CORE_STREAMING_DM_H_

#include <string_view>
#include <utility>

#include "core/candidate_ladder.h"
#include "core/solution.h"
#include "geo/metric.h"
#include "util/status.h"

namespace fdm {

/// Algorithm 1 — one-pass streaming algorithm for *unconstrained* max-min
/// diversity maximization (Borassi et al. [7], re-analyzed by the paper's
/// Theorem 1 to a `(1−ε)/2` approximation).
///
/// Maintains one `StreamingCandidate` per guess `µ ∈ U` (the ladder's
/// group-blind candidates; Algorithm 1 keeps no group-specific ones); on
/// `Solve`, the full candidate with maximum actual diversity wins.
///
/// Costs (Theorem 1 discussion): `O(k·log∆/ε)` time per element and
/// `O(k·log∆/ε)` stored elements.
class StreamingDm : public CandidateLadder {
 public:
  /// Creates the algorithm for solution size `k` over points of dimension
  /// `dim` under `metric`.
  static Result<StreamingDm> Create(int k, size_t dim, MetricKind metric,
                                    const StreamingOptions& options);

  /// Algorithm 1, line 7: the full candidate maximizing `div(S_µ)`.
  /// Fails with `Infeasible` if no candidate filled (fewer than `k`
  /// sufficiently distinct points seen). Per-candidate diversity fans
  /// out over the process-wide width (`Parallelism`); the winner scan
  /// stays sequential, so output is bit-identical at any width.
  Result<Solution> Solve() const override;

  /// Versioned state serialization; see `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the algorithm from a snapshot taken by `Snapshot`.
  static Result<StreamingDm> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "streaming_dm";

 private:
  StreamingDm(int k, size_t dim, MetricKind metric, GuessLadder ladder)
      : CandidateLadder(k, dim, metric, std::move(ladder), {}) {}
};

}  // namespace fdm

#endif  // FDM_CORE_STREAMING_DM_H_
