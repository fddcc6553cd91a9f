#include "core/streaming_candidate.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "core/diversity.h"
#include "core/parallelism.h"
#include "geo/point_buffer_io.h"

namespace fdm {

namespace {

// Whether point `i` of `a` and point `j` of `b` have the same id, group,
// coordinate bits and norm bits.
bool SameBits(const PointBuffer& a, size_t i, const PointBuffer& b, size_t j) {
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  if (a.IdAt(i) != b.IdAt(j) || a.GroupAt(i) != b.GroupAt(j) ||
      bits(a.SquaredNormAt(i)) != bits(b.SquaredNormAt(j))) {
    return false;
  }
  for (size_t d = 0; d < a.dim(); ++d) {
    if (bits(a.CoordAt(i, d)) != bits(b.CoordAt(j, d))) return false;
  }
  return true;
}

// The id map slot an id's probe starts at (Fibonacci hashing; `mask` is
// the map size minus one).
size_t HomeSlot(int64_t id, size_t mask) {
  return static_cast<size_t>(
             (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 32) &
         mask;
}

}  // namespace

PointBuffer CandidatePoints::Copy() const {
  if (rows_ == nullptr) return *buffer_;
  PointBuffer copy(buffer_->dim(), size_);
  copy.Reserve(size_);
  for (size_t i = 0; i < size_; ++i) copy.AddFrom(*buffer_, rows_[i]);
  return copy;
}

void CandidatePoints::Serialize(SnapshotWriter& writer) const {
  if (rows_ == nullptr) {
    SerializePointBuffer(writer, *buffer_);
  } else {
    SerializePointRows(writer, *buffer_, std::span<const uint32_t>(rows_, size_));
  }
}

void StreamingCandidate::Freeze(PointPool& pool) {
  FDM_DCHECK(!frozen() && points_.size() == capacity_);
  frozen_at_ = pool.Intern(points_);
  points_ = PointBuffer(points_.dim(), capacity_);
}

CandidatePoints StreamingCandidate::Points(const PointPool* pool) const {
  if (!frozen()) return CandidatePoints(points_);
  FDM_DCHECK(pool != nullptr);
  return pool->Rows(frozen_at_, capacity_);
}

size_t PointPool::Intern(const PointBuffer& points) {
  const size_t at = rows_.size();
  for (size_t i = 0; i < points.size(); ++i) {
    rows_.push_back(Entry(points, i));
  }
  return at;
}

uint32_t PointPool::Entry(const PointBuffer& points, size_t i) {
  const size_t mask = by_id_.size() - 1;
  if (!by_id_.empty()) {
    for (size_t s = HomeSlot(points.IdAt(i), mask); by_id_[s] != 0;
         s = (s + 1) & mask) {
      const uint32_t entry = by_id_[s] - 1;
      if (SameBits(entries_, entry, points, i)) return entry;
    }
  }
  FDM_CHECK_MSG(entries_.size() < UINT32_MAX - 1, "point pool is full");
  const auto entry = static_cast<uint32_t>(entries_.size());
  entries_.AddFrom(points, i);
  if (4 * entries_.size() > 3 * by_id_.size()) {
    by_id_.assign(std::max<size_t>(16, 2 * by_id_.size()), 0);
    for (uint32_t e = 0; e <= entry; ++e) Place(e);
  } else {
    Place(entry);
  }
  return entry;
}

void PointPool::Place(uint32_t entry) {
  const size_t mask = by_id_.size() - 1;
  size_t s = HomeSlot(entries_.IdAt(entry), mask);
  while (by_id_[s] != 0) s = (s + 1) & mask;
  by_id_[s] = entry + 1;
}

size_t PointPool::MemoryBytes() const {
  return entries_.MemoryBytes() +
         (rows_.capacity() + by_id_.capacity()) * sizeof(uint32_t);
}

std::optional<Solution> BestFullCandidate(
    size_t count,
    const std::function<const StreamingCandidate&(size_t)>& candidate,
    const PointPool* pool, int k, const Metric& metric) {
  // -1 marks a candidate that is not full: a full one's diversity is a
  // distance or µ, never negative, so the scan's strict `>` skips the rest.
  std::vector<double> diversity(count, -1.0);
  Parallelism::Run(count, [&](size_t j) {
    const StreamingCandidate& c = candidate(j);
    if (!c.Full()) return;
    if (k < 2) {
      diversity[j] = c.mu();
    } else if (c.frozen()) {
      // The pairwise kernel scans one buffer: gather the pool rows.
      diversity[j] = MinPairwiseDistance(c.Points(pool).Copy(), metric);
    } else {
      diversity[j] = MinPairwiseDistance(c.points(), metric);
    }
  });
  const StreamingCandidate* best = nullptr;
  double best_div = -1.0;
  for (size_t j = 0; j < count; ++j) {
    if (diversity[j] > best_div) {
      best_div = diversity[j];
      best = &candidate(j);
    }
  }
  if (best == nullptr) return std::nullopt;
  PointBuffer points = best->Points(pool).Copy();
  Solution solution(points.dim());
  solution.points = std::move(points);
  solution.diversity = best_div;
  solution.mu = best->mu();
  return solution;
}

}  // namespace fdm
