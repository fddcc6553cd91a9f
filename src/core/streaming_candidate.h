#ifndef FDM_CORE_STREAMING_CANDIDATE_H_
#define FDM_CORE_STREAMING_CANDIDATE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/solution.h"
#include "geo/point_buffer.h"
#include "util/check.h"

namespace fdm {

/// One candidate `S_µ` of Algorithm 1: a bounded set that accepts a point
/// iff it is at distance `≥ µ` from everything already kept and the
/// capacity is not reached (lines 5–6).
///
/// Invariant maintained at all times: the stored points are pairwise at
/// distance `≥ µ`, hence `div(S_µ) ≥ µ` whenever the candidate is full.
///
/// Frozen state: a full candidate never changes again (it only ever
/// appended, and full is permanent), so its owner may `Freeze` it. The
/// points then move into an immutable `std::shared_ptr<const PointBuffer>`,
/// or are dropped for an equal one the owner already holds, so candidates
/// with equal contents (the same elements filling several guess rungs)
/// store them once. A frozen candidate reads exactly as before: `Full()`
/// holds, `points()` returns the shared buffer, and admission rejects
/// every point. Copies share the frozen buffer, which is safe because
/// nothing writes it.
class StreamingCandidate {
 public:
  StreamingCandidate(double mu, size_t capacity, size_t dim)
      : mu_(mu), capacity_(capacity), points_(dim, capacity) {}

  /// Algorithm 1, lines 5–6: add `p` iff `|S_µ| < capacity` and
  /// `d(p, S_µ) ≥ µ`. Returns true iff the point was kept.
  bool TryAdd(const StreamPoint& p, const Metric& metric) {
    if (Full()) return false;
    if (!points_.AllAtLeast(p.coords, metric, mu_)) return false;
    points_.Add(p);
    return true;
  }

  /// Batched form of a `TryAdd` loop over `batch` in stream order; returns
  /// the number of points kept. Decisions are identical to the sequential
  /// loop: the batch's distances to the *pre-batch* contents are computed
  /// in one pass over the stored blocks (`MinRawDistanceToMany`, with the
  /// prepared `µ` as the per-query early-exit threshold — rejected points
  /// stop scanning at their first close block), and each point then only
  /// re-checks the handful of points admitted earlier in the same batch,
  /// reading their coordinates from the batch, not the buffer.
  /// Admission depends on `min(d to old points, d to new points) >= µ` and
  /// on the capacity, both of which the split preserves exactly.
  size_t TryAddBatch(std::span<const StreamPoint> batch, const Metric& metric) {
    return TryAddRun(
        batch.size(), metric,
        [&](size_t t) -> const StreamPoint& { return batch[t]; });
  }

  /// As `TryAddBatch`, but replays only the batch positions listed in
  /// `positions` (in order) — the group-specific candidates of the fair
  /// ladders see just their group's slice of the batch.
  size_t TryAddBatchIndexed(std::span<const StreamPoint> batch,
                            std::span<const size_t> positions,
                            const Metric& metric) {
    return TryAddRun(positions.size(), metric,
                     [&](size_t t) -> const StreamPoint& {
                       return batch[positions[t]];
                     });
  }

  /// Snapshot-restore path: direct mutable access to the underlying
  /// storage, bypassing the µ-distance admission check. Only the
  /// `Restore` hooks use this — the snapshot was written from a state
  /// where the pairwise-`≥ µ` invariant held, and the file is checksummed,
  /// so re-verifying every insertion would only redo the stream's work.
  PointBuffer& MutablePointsForRestore() {
    FDM_DCHECK(!frozen());
    return points_;
  }

  /// Freezes a full candidate (see the class comment). With `equal` null
  /// the points move into a new shared buffer; otherwise `equal` must hold
  /// bitwise-equal points, and the candidate's own copy is released.
  /// Returns the buffer the candidate now reads.
  const std::shared_ptr<const PointBuffer>& Freeze(
      std::shared_ptr<const PointBuffer> equal) {
    FDM_DCHECK(Full() && !frozen());
    const size_t dim = points_.dim();
    frozen_ = equal != nullptr
                  ? std::move(equal)
                  : std::make_shared<const PointBuffer>(std::move(points_));
    points_ = PointBuffer(dim, capacity_);
    return frozen_;
  }

  bool frozen() const { return frozen_ != nullptr; }
  bool Full() const { return frozen() || points_.size() >= capacity_; }
  double mu() const { return mu_; }
  size_t capacity() const { return capacity_; }
  const PointBuffer& points() const { return frozen() ? *frozen_ : points_; }

 private:
  template <typename PointAt>
  size_t TryAddRun(size_t count, const Metric& metric, PointAt&& point_at) {
    if (count == 0 || Full()) return 0;
    if (count == 1) return TryAdd(point_at(0), metric) ? 1 : 0;
    // Scratch reused across calls; thread-local because the rung-major
    // replay engine runs candidates on pool threads.
    thread_local std::vector<const double*> queries;
    thread_local std::vector<double> stops;
    thread_local std::vector<double> mins;
    queries.resize(count);
    for (size_t t = 0; t < count; ++t) {
      queries[t] = point_at(t).coords.data();
    }
    const double prepared = metric.PrepareThreshold(mu_);
    stops.assign(count, prepared);
    mins.resize(count);
    points_.MinRawDistanceToMany(
        std::span<const double* const>(queries.data(), count), metric,
        std::span<const double>(stops.data(), count),
        std::span<double>(mins.data(), count));
    // The intra-batch re-check reads the batch itself: `queries[0, kept)`
    // is compacted to the points admitted so far (in admission order, and
    // `kept <= t`, so no unread query is overwritten).
    size_t kept = 0;
    for (size_t t = 0; t < count; ++t) {
      if (points_.size() >= capacity_) break;  // full is permanent
      if (mins[t] < prepared) continue;        // too close to the old set
      const double* x = queries[t];
      bool admit = true;
      for (size_t a = 0; a < kept; ++a) {
        if (metric.RawDistance(x, queries[a], points_.dim()) < prepared) {
          admit = false;
          break;
        }
      }
      if (!admit) continue;
      // Fused admission+insert: the kernel scan over the old set already
      // ran (above, before any mutation) and the re-check reads the batch,
      // so nothing scans the block layout again until the batch completes
      // — each accepted point writes only its own block lane here, and the
      // padding-replication invariant is restored once per batch below
      // instead of once per insertion.
      points_.AddDeferPadding(point_at(t));
      queries[kept++] = x;
    }
    if (kept > 0) points_.SealPadding();
    return kept;
  }

  double mu_;
  size_t capacity_;
  PointBuffer points_;  // empty once frozen
  std::shared_ptr<const PointBuffer> frozen_;  // set once frozen
};

/// The solution of the unconstrained streaming sinks (Algorithm 1's
/// post-processing): among the `count` candidates `candidate(j)`, in
/// ascending µ, the full one of greatest diversity — the minimum pairwise
/// distance of its `k` points, or µ when `k < 2`. The diversities are
/// computed over the process-wide width, each task writing only its own
/// slot; the winner scan stays a sequential ascending pass with strict
/// `>`, so the output is bit-identical at any width. Nullopt when no
/// candidate is full (each sink words its own Infeasible error).
std::optional<Solution> BestFullCandidate(
    size_t count,
    const std::function<const StreamingCandidate&(size_t)>& candidate, int k,
    const Metric& metric);

}  // namespace fdm

#endif  // FDM_CORE_STREAMING_CANDIDATE_H_
