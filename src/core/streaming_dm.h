#ifndef FDM_CORE_STREAMING_DM_H_
#define FDM_CORE_STREAMING_DM_H_

#include <span>
#include <string_view>
#include <vector>

#include "core/guess_ladder.h"
#include "core/solution.h"
#include "core/stream_sink.h"
#include "core/streaming_candidate.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm {

/// Parameters shared by all the streaming algorithms. `d_min`/`d_max` are
/// (bounds on) the minimum/maximum pairwise distances in the stream; the
/// paper assumes them known, and `EstimateDistanceBounds` provides safe
/// estimates in practice.
struct StreamingOptions {
  double epsilon = 0.1;
  double d_min = 0.0;
  double d_max = 0.0;
};

/// Algorithm 1 — one-pass streaming algorithm for *unconstrained* max-min
/// diversity maximization (Borassi et al. [7], re-analyzed by the paper's
/// Theorem 1 to a `(1−ε)/2` approximation).
///
/// Maintains one `StreamingCandidate` per guess `µ ∈ U`; on `Solve`, the
/// full candidate with maximum actual diversity wins.
///
/// Costs (Theorem 1 discussion): `O(k·log∆/ε)` time per element and
/// `O(k·log∆/ε)` stored elements.
class StreamingDm : public StreamSink {
 public:
  /// Creates the algorithm for solution size `k` over points of dimension
  /// `dim` under `metric`.
  static Result<StreamingDm> Create(int k, size_t dim, MetricKind metric,
                                    const StreamingOptions& options);

  /// Processes one stream element (Algorithm 1, lines 3–6). Returns true
  /// iff any candidate kept the element.
  bool Observe(const StreamPoint& point) override;

  /// Batched ingestion: the per-rung insertions are independent across
  /// rungs, so the batch is processed rung-major (each rung replays the
  /// batch in order), fanned out over the process-wide width
  /// (`Parallelism`) — bit-identical to per-element `Observe`.
  size_t ObserveBatch(std::span<const StreamPoint> batch) override;

  /// Advances by the number of successful candidate insertions, which is
  /// chunking-invariant (see `StreamSink::StateVersion`).
  uint64_t StateVersion() const override { return state_version_; }

  /// Algorithm 1, line 7: the full candidate maximizing `div(S_µ)`.
  /// Fails with `Infeasible` if no candidate filled (fewer than `k`
  /// sufficiently distinct points seen). Per-candidate diversity fans
  /// out over the process-wide width (`Parallelism`); the winner scan
  /// stays sequential, so output is bit-identical at any width.
  Result<Solution> Solve() const override;

  /// Number of *distinct* elements currently stored across all candidates
  /// (the paper's space-usage measure).
  size_t StoredElements() const override;

  /// Total elements seen so far.
  int64_t ObservedElements() const override { return observed_; }

  /// Versioned state serialization; see `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the algorithm from a snapshot taken by `Snapshot`.
  static Result<StreamingDm> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "streaming_dm";

  const GuessLadder& ladder() const { return ladder_; }
  int k() const { return k_; }

 private:
  StreamingDm(int k, size_t dim, MetricKind metric, GuessLadder ladder);

  int k_;
  size_t dim_;
  Metric metric_;
  GuessLadder ladder_;
  std::vector<StreamingCandidate> candidates_;  // one per rung, ascending µ
  PackedBatch packed_;  // batch repack scratch, reused across batches
  std::vector<size_t> rung_kept_;  // per-rung batch insert counts scratch
  int64_t observed_ = 0;
  uint64_t state_version_ = 0;
};

}  // namespace fdm

#endif  // FDM_CORE_STREAMING_DM_H_
