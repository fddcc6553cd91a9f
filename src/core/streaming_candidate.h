#ifndef FDM_CORE_STREAMING_CANDIDATE_H_
#define FDM_CORE_STREAMING_CANDIDATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/solution.h"
#include "geo/point_buffer.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

class PointPool;

/// A candidate's points as their readers see them: `size()` rows of one
/// buffer, in candidate order — all of the candidate's own buffer, or,
/// once it is frozen, its entries in its owner's `PointPool`. Readers copy
/// points out by row (`AppendTo`, `Copy`), so a frozen candidate reads the
/// same ids, groups and coordinate and norm bits as the buffer it held.
/// Valid until the buffer or the pool next changes.
class CandidatePoints {
 public:
  /// All of `buffer`, in order.
  explicit CandidatePoints(const PointBuffer& buffer)
      : buffer_(&buffer), size_(buffer.size()) {}
  /// Rows `rows` of `buffer`, in that order.
  CandidatePoints(const PointBuffer& buffer, std::span<const uint32_t> rows)
      : buffer_(&buffer), rows_(rows.data()), size_(rows.size()) {}

  size_t size() const { return size_; }
  int64_t IdAt(size_t i) const { return buffer_->IdAt(Row(i)); }
  std::span<const double> GatherCoords(size_t i, std::span<double> out) const {
    return buffer_->GatherCoords(Row(i), out);
  }
  /// Appends point `i` to `out`, bit for bit (`PointBuffer::AddFrom`).
  void AppendTo(PointBuffer& out, size_t i) const {
    out.AddFrom(*buffer_, Row(i));
  }
  /// A buffer holding exactly these points, in order, bit for bit.
  PointBuffer Copy() const;
  /// Writes these points as `SerializePointBuffer` writes `Copy()`.
  void Serialize(SnapshotWriter& writer) const;

 private:
  /// The row of the buffer that holds point `i`.
  size_t Row(size_t i) const {
    FDM_DCHECK(i < size_);
    return rows_ == nullptr ? i : rows_[i];
  }

  const PointBuffer* buffer_;
  const uint32_t* rows_ = nullptr;  // null: point `i` is row `i`
  size_t size_;
};

/// One candidate `S_µ` of Algorithm 1: a bounded set that accepts a point
/// iff it is at distance `≥ µ` from everything already kept and the
/// capacity is not reached (lines 5–6).
///
/// Invariant maintained at all times: the stored points are pairwise at
/// distance `≥ µ`, hence `div(S_µ) ≥ µ` whenever the candidate is full.
///
/// Frozen state: a full candidate never changes again (it only ever
/// appended, and full is permanent), so its owner may `Freeze` it into the
/// owner's `PointPool`. The candidate then keeps only where its entries
/// start in the pool's index list, and releases its own buffer: the same
/// element filling candidates at many guesses is stored once per owner. A
/// frozen candidate reads exactly as before through `Points`: `Full()`
/// holds, and admission rejects every point.
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

  /// Freezes a full candidate into `pool` (see the class comment).
  void Freeze(PointPool& pool);

  bool frozen() const { return frozen_at_ != kNotFrozen; }
  bool Full() const { return frozen() || points_.size() >= capacity_; }
  double mu() const { return mu_; }
  size_t capacity() const { return capacity_; }
  /// Points held: the capacity once frozen.
  size_t size() const { return frozen() ? capacity_ : points_.size(); }
  /// The candidate's own buffer, which a frozen candidate has released.
  const PointBuffer& points() const {
    FDM_DCHECK(!frozen());
    return points_;
  }
  /// The candidate's points, frozen or not; `pool` is its owner's pool,
  /// and may be null for a candidate that is never frozen.
  CandidatePoints Points(const PointPool* pool) const;

 private:
  static constexpr size_t kNotFrozen = static_cast<size_t>(-1);

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
  PointBuffer points_;  // released once frozen
  size_t frozen_at_ = kNotFrozen;  // start of its entries in the pool
};

/// The points of one owner's frozen candidates, each stored once: an
/// append-only `PointBuffer` of entries, an index list that holds every
/// frozen candidate's entries as one run, and an id map over the entries.
/// A candidate that freezes interns each of its points — it reuses an
/// entry only when id, group, coordinate bits and norm bits all match,
/// since a session without the exactly-once guard may re-send an id with
/// other coordinates — and appends the entries to the index list.
class PointPool {
 public:
  explicit PointPool(size_t dim) : entries_(dim, 0) {}

  /// Interns every point of `points`, in order; returns where their
  /// entries start in the index list.
  size_t Intern(const PointBuffer& points);

  /// The `count` points whose entries start at `at` in the index list.
  CandidatePoints Rows(size_t at, size_t count) const {
    return CandidatePoints(entries_,
                           std::span<const uint32_t>(rows_).subspan(at, count));
  }

  /// Every entry, each point stored once.
  const PointBuffer& entries() const { return entries_; }

  /// Heap bytes of the entries, the index list and the id map.
  size_t MemoryBytes() const;

 private:
  /// The entry holding point `i` of `points`, added if none does.
  uint32_t Entry(const PointBuffer& points, size_t i);
  /// Puts `entry` in the id map's first free slot for its id.
  void Place(uint32_t entry);

  PointBuffer entries_;
  std::vector<uint32_t> rows_;  // the index list
  // Open-addressed id map (linear probing, power-of-two size, at most 3/4
  // full): entry + 1 in each used slot, 0 in a free one.
  std::vector<uint32_t> by_id_;
};

/// The solution of the unconstrained streaming sinks (Algorithm 1's
/// post-processing): among the `count` candidates `candidate(j)`, in
/// ascending µ, the full one of greatest diversity — the minimum pairwise
/// distance of its `k` points, or µ when `k < 2`. The diversities are
/// computed over the process-wide width, each task writing only its own
/// slot; the winner scan stays a sequential ascending pass with strict
/// `>`, so the output is bit-identical at any width. Nullopt when no
/// candidate is full (each sink words its own Infeasible error).
/// `pool` is the owner's pool, null when the candidates are never frozen.
std::optional<Solution> BestFullCandidate(
    size_t count,
    const std::function<const StreamingCandidate&(size_t)>& candidate,
    const PointPool* pool, int k, const Metric& metric);

}  // namespace fdm

#endif  // FDM_CORE_STREAMING_CANDIDATE_H_
