#ifndef FDM_CORE_CANDIDATE_LADDER_H_
#define FDM_CORE_CANDIDATE_LADDER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/guess_ladder.h"
#include "core/stream_sink.h"
#include "core/streaming_candidate.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/check.h"
#include "util/status.h"

namespace fdm {

namespace obs {
class Histogram;
}  // namespace obs

/// Parameters shared by all the streaming algorithms. `d_min`/`d_max` are
/// (bounds on) the minimum/maximum pairwise distances in the stream; the
/// paper assumes them known, and `EstimateDistanceBounds` provides safe
/// estimates in practice.
struct StreamingOptions {
  double epsilon = 0.1;
  double d_min = 0.0;
  double d_max = 0.0;
};

/// Reusable scratch that repacks a batch's scattered coordinate spans into
/// one contiguous block. A batched sink replays the batch once per rung;
/// packing first means every replay streams the coordinates linearly
/// instead of chasing the caller's memory layout (e.g. a permuted view of a
/// dataset) once per rung. A batch whose coordinates already sit in one
/// run, in stream order, is replayed in place (`ObserveBatch`). The
/// returned views stay valid until the next `Pack` call.
class PackedBatch {
 public:
  std::span<const StreamPoint> Pack(std::span<const StreamPoint> batch,
                                    size_t dim) {
    coords_.clear();
    points_.clear();
    coords_.reserve(batch.size() * dim);
    points_.reserve(batch.size());
    for (const StreamPoint& point : batch) {
      FDM_DCHECK(point.coords.size() == dim);
      coords_.insert(coords_.end(), point.coords.begin(), point.coords.end());
    }
    for (size_t t = 0; t < batch.size(); ++t) {
      points_.push_back(StreamPoint{
          batch[t].id, batch[t].group,
          std::span<const double>(coords_.data() + t * dim, dim)});
    }
    return points_;
  }

 private:
  std::vector<double> coords_;
  std::vector<StreamPoint> points_;
};

/// The streaming phase of Algorithms 1–3 over a fixed `GuessLadder`. For
/// every guess `µ` it keeps the group-blind candidate `S_µ` (capacity `k`)
/// and, for the fair variants, one `S_µ,i` per group `i`, and admits an
/// element into a candidate iff `|S| < capacity` and `d(x, S) ≥ µ`. The
/// algorithms differ only in the group-specific capacities they pass in —
/// none for Algorithm 1 (`StreamingDm`), `k_i` for SFDM1 and `k` for SFDM2
/// — and in their post-processing, so each derives from this class and
/// adds its own `Solve` and snapshot prefix.
///
/// Batched ingestion is rung-major: task `j` owns rung `j`'s candidates
/// and replays the batch into each in stream order through
/// `TryAddBatch`, which front-loads the batch's distance scans against the
/// candidate's pre-batch contents into one SIMD pass over the stored
/// blocks; per-candidate state still evolves exactly as under per-element
/// `Observe` (admission decisions depend only on that candidate's own
/// contents, and the batched form is decision-identical). Rungs never
/// share state, so fanning them out over the process-wide width
/// (`Parallelism`, core/parallelism.h) is exact. A full candidate is
/// skipped with one check per batch (full is permanent).
///
/// The per-rung insert counts are chunking-invariant for the same reason
/// (the per-candidate `TryAdd` sequence is identical to per-element
/// `Observe`); they feed the state version and the rung-level versions
/// that key SFDM2's incremental query path. The query path mirrors this
/// determinism contract on the same width and pool: a parallel `Solve()`
/// fans its per-rung post-processing out with task `j` owning rung `j`'s
/// inputs and writing only slot `j` of its result array, while the final
/// best-rung selection stays a sequential ascending-index scan with
/// strict `>`.
///
/// Full candidates are frozen into one `PointPool` per sink
/// (`StreamingCandidate::Freeze`): when a candidate fills — in `Observe`
/// right after the insert, in `ObserveBatch` after the rung fan-out joins,
/// and at the end of `ReadState` — it interns each of its points, keeps
/// its entries as one run of the pool's index list and releases its own
/// buffer. The same elements fill candidates at many neighbouring guesses,
/// often with other companions, so each frozen point is stored once per
/// sink. Non-full candidates keep their own kernel-layout buffers, so the
/// admission scans are untouched. Every reader goes through `Points`, which
/// reads pool entries by index, so outputs, kernel inputs and snapshot
/// bytes do not change.
class CandidateLadder : public StreamSink {
 public:
  /// Processes one stream element (Algorithm 1, lines 3–6; Algorithms 2
  /// and 3, lines 3–8): a plain loop over the rungs, touching the
  /// group-blind candidate and the element's own group candidate per
  /// guess. Returns true iff any candidate kept the element.
  bool Observe(const StreamPoint& point) override;

  /// Rung-major batched ingestion (see the class comment), bit-identical
  /// to per-element `Observe`.
  size_t ObserveBatch(std::span<const StreamPoint> batch) override;

  /// Advances by the number of successful candidate insertions (and by
  /// one per post-processing reconfiguration, see `BumpStateVersion`);
  /// chunking-invariant, see `StreamSink::StateVersion`.
  uint64_t StateVersion() const override { return state_version_; }

  /// Number of *distinct* elements stored across all candidates (the
  /// paper's space-usage measure).
  size_t StoredElements() const override;

  /// Total elements seen so far.
  int64_t ObservedElements() const override { return observed_; }

  /// Heap bytes of candidate storage: the pool (its entries, index list
  /// and id map) and the buffer of every candidate that is not frozen.
  size_t CandidateBytes() const;

  const GuessLadder& ladder() const { return ladder_; }
  /// The solution size: the capacity of every group-blind candidate.
  int k() const { return k_; }

 protected:
  /// `group_capacities[i]` is the capacity of every `S_µ,i`; empty for the
  /// unconstrained algorithm, which then ignores element groups.
  CandidateLadder(int k, size_t dim, MetricKind metric, GuessLadder ladder,
                  const std::vector<int>& group_capacities);

  /// The `Create` validation every fixed-ladder algorithm shares: a
  /// positive `dim` and a valid `(d_min, d_max, ε)`.
  static Result<GuessLadder> MakeLadder(size_t dim,
                                        const StreamingOptions& options);

  size_t dim() const { return dim_; }
  const Metric& metric() const { return metric_; }
  size_t rungs() const { return blind_.size(); }
  int num_groups() const { return static_cast<int>(groups_); }
  /// `S_µj` and `S_µj,g`.
  const StreamingCandidate& blind(size_t j) const { return blind_[j]; }
  const StreamingCandidate& specific(int g, size_t j) const {
    return specific_[static_cast<size_t>(g) * rungs() + j];
  }
  /// The points of one of this sink's candidates, frozen or not.
  CandidatePoints Points(const StreamingCandidate& candidate) const {
    return candidate.Points(&pool_);
  }
  const PointPool& pool() const { return pool_; }
  /// Insertions into rung `j`'s candidates since construction or restore.
  uint64_t rung_inserts(size_t j) const { return rung_inserts_[j]; }

  /// Advances the state version without an insertion: a reconfiguration
  /// that changes what `Solve` computes must not leave the version equal.
  void BumpStateVersion() { ++state_version_; }

  /// Per-rung post-processing latency inside a cold `Solve()`, shared by
  /// the fair algorithms under one metric name.
  static obs::Histogram& RungSolveHist();

  /// The streaming header every fixed-ladder snapshot carries after its
  /// prefix: `(dim, metric, d_min, d_max, ε, reserved, reserved)`.
  struct StreamingHeader {
    size_t dim = 0;
    MetricKind metric = MetricKind::kEuclidean;
    StreamingOptions options;  // d_min, d_max, ε
  };
  void WriteStreamingHeader(SnapshotWriter& writer) const;
  static StreamingHeader ReadStreamingHeader(SnapshotReader& reader);

  /// The ladder state: `observed, version, rungs`, then every rung's
  /// candidates, rung-major, the group-blind one first and then one per
  /// group in ascending order. The guess ladder is a pure function of
  /// `(d_min, d_max, ε)`, so a restore rebuilds the rung structure through
  /// `Create` and `ReadState` fills it, checking the rung count against
  /// the rebuilt ladder and each candidate against its capacity. The
  /// per-rung insert counts are not stored: a restored sink starts them at
  /// zero, with nothing memoized against them.
  void WriteState(SnapshotWriter& writer) const;
  Status ReadState(SnapshotReader& reader);

 private:
  /// Freezes `candidate` into the pool if it is full, holds a point and is
  /// not frozen yet (see the class comment).
  void FreezeIfFull(StreamingCandidate& candidate);

  int k_;
  size_t dim_;
  Metric metric_;
  GuessLadder ladder_;
  size_t groups_;  // group-specific candidate rows (0 for Algorithm 1)
  std::vector<StreamingCandidate> blind_;  // S_µj, capacity k, per rung
  // specific_[g * rungs() + j] = S_µj,g.
  std::vector<StreamingCandidate> specific_;
  std::vector<uint64_t> rung_inserts_;  // per rung, see `rung_inserts`
  PointPool pool_;  // the frozen candidates' points
  int64_t observed_ = 0;
  uint64_t state_version_ = 0;
};

}  // namespace fdm

#endif  // FDM_CORE_CANDIDATE_LADDER_H_
