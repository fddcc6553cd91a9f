#ifndef FDM_CORE_ADAPTIVE_STREAMING_DM_H_
#define FDM_CORE_ADAPTIVE_STREAMING_DM_H_

#include <deque>
#include <span>
#include <string_view>

#include "core/solution.h"
#include "core/stream_sink.h"
#include "core/streaming_candidate.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm {

/// Bounds-free variant of Algorithm 1: streaming max-min diversity
/// maximization *without* knowing `d_min`/`d_max` in advance.
///
/// The paper (like Borassi et al. [7]) assumes the distance range is known
/// so the guess ladder `U` can be built upfront. In deployments the range
/// often is not known, so this variant grows the ladder lazily:
///
///  * the ladder is seeded from the first nonzero pairwise distance seen;
///  * when an element is far from every point of the current top rung's
///    candidate, rungs are appended above — each new rung's candidate is
///    seeded by greedily filtering the previous top candidate (points kept
///    are pairwise `≥ µ_new`, so the candidate invariant holds);
///  * when an element is closer to the bottom rung's candidate than its µ
///    (and the candidate is not full), rungs are prepended below, seeded
///    with a copy of the old bottom candidate (valid: its points are
///    pairwise `≥ µ_old > µ_new`).
///
/// The candidate invariant (stored points pairwise `≥ µ`) holds at every
/// rung at all times, so any full candidate certifies `div ≥ µ` exactly as
/// in Algorithm 1. What is weakened is the *coverage* half of Theorem 1's
/// argument: a late-created rung has not seen early elements, so the
/// `(1−ε)/2` bound holds relative to the optimum over the suffix each rung
/// observed. Empirically (see adaptive_streaming_dm_test.cc) the solutions
/// track the oracle-bounds Algorithm 1 closely; the trade-off is the price
/// of removing the d_min/d_max assumption.
///
/// Memory: O(k·|ladder|) like Algorithm 1, with |ladder| growing
/// logarithmically in the observed distance spread; `max_rungs` caps it.
class AdaptiveStreamingDm : public StreamSink {
 public:
  /// `k >= 1`, `0 < epsilon < 1`, `max_rungs` bounds the lazily grown
  /// ladder (a spread of 10^9 at ε = 0.1 needs ~200 rungs).
  static Result<AdaptiveStreamingDm> Create(int k, size_t dim,
                                            MetricKind metric, double epsilon,
                                            size_t max_rungs = 4096);

  /// Processes one element, growing the ladder as needed. Returns true iff
  /// the element mutated state: it was held as the pending seed, seeded or
  /// grew the ladder, or was kept by some rung.
  bool Observe(const StreamPoint& point) override;

  /// Advances once per mutating `Observe` (chunking-invariant because the
  /// inherited `ObserveBatch` is the per-element loop; see
  /// `StreamSink::StateVersion`).
  uint64_t StateVersion() const override { return state_version_; }

  /// Inherits the sequential `ObserveBatch` of `StreamSink`: ladder growth
  /// is data-dependent (each element may append or prepend rungs that the
  /// next element must see), so elements form a dependent chain and the
  /// rung-parallel replay of the fixed-ladder algorithms would not be
  /// equivalent here.

  /// Best full candidate, as in Algorithm 1. Fails if no candidate filled.
  /// Per-rung diversity fans out over the process-wide width
  /// (`Parallelism`); the winner scan stays a sequential ascending-µ
  /// pass, so output is bit-identical to the sequential path at any width.
  Result<Solution> Solve() const override;

  /// Distinct stored elements across rungs.
  size_t StoredElements() const override;

  int64_t ObservedElements() const override { return observed_; }

  /// Versioned state serialization; unlike the fixed-ladder algorithms the
  /// lazily grown rung µs are data-dependent, so each rung's µ is stored
  /// explicitly. See `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the algorithm from a snapshot taken by `Snapshot`.
  static Result<AdaptiveStreamingDm> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "adaptive_streaming_dm";

  size_t NumRungs() const { return rungs_.size(); }
  double BottomMu() const { return rungs_.empty() ? 0.0 : rungs_.front().mu(); }
  double TopMu() const { return rungs_.empty() ? 0.0 : rungs_.back().mu(); }

 private:
  AdaptiveStreamingDm(int k, size_t dim, MetricKind metric, double epsilon,
                      size_t max_rungs)
      : k_(k), dim_(dim), metric_(metric), epsilon_(epsilon),
        max_rungs_(max_rungs) {}

  /// Appends a rung with `µ = top·growth`, seeding its candidate by
  /// greedily filtering the current top candidate.
  void GrowUp();

  /// Prepends a rung with `µ = bottom·(1−ε)`, seeding it with a copy of
  /// the current bottom candidate.
  void GrowDown();

  int k_;
  size_t dim_;
  Metric metric_;
  double epsilon_;
  size_t max_rungs_;
  std::deque<StreamingCandidate> rungs_;  // ascending µ
  /// First point seen before the ladder exists (needed to seed d_min from
  /// the first nonzero pairwise distance).
  PointBuffer pending_{1, 0};
  bool pending_valid_ = false;
  int64_t observed_ = 0;
  uint64_t state_version_ = 0;
};

}  // namespace fdm

#endif  // FDM_CORE_ADAPTIVE_STREAMING_DM_H_
