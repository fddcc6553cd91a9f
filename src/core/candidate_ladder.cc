#include "core/candidate_ladder.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/parallelism.h"
#include "core/snapshot_util.h"
#include "geo/point_buffer_io.h"
#include "obs/metrics.h"
#include "util/binary_io.h"
#ifndef FDM_NO_METRICS
#include <atomic>
#include <chrono>
#endif

namespace fdm {

namespace {

// Whether a ladder with `groups` group-specific rows accepts an element of
// `group`: a fair ladder needs the element's own row, the unconstrained one
// (no rows) ignores groups.
bool AcceptsGroup(int group, size_t groups) {
  return groups == 0 || (group >= 0 && static_cast<size_t>(group) < groups);
}

// Whether each point's coordinates start where the previous point's end:
// the batch is one run in stream order (an OBSERVEB without the
// exactly-once guard, a WAL replay) and needs no repack.
bool Contiguous(std::span<const StreamPoint> batch) {
  for (size_t t = 1; t < batch.size(); ++t) {
    const std::span<const double> prev = batch[t - 1].coords;
    if (batch[t].coords.data() != prev.data() + prev.size()) return false;
  }
  return true;
}

}  // namespace

CandidateLadder::CandidateLadder(int k, size_t dim, MetricKind metric,
                                 GuessLadder ladder,
                                 const std::vector<int>& group_capacities)
    : k_(k),
      dim_(dim),
      metric_(metric),
      ladder_(std::move(ladder)),
      groups_(group_capacities.size()),
      rung_inserts_(ladder_.size(), 0),
      pool_(dim) {
  blind_.reserve(ladder_.size());
  specific_.reserve(groups_ * ladder_.size());
  for (size_t j = 0; j < ladder_.size(); ++j) {
    blind_.emplace_back(ladder_.At(j), static_cast<size_t>(k_), dim_);
  }
  for (const int capacity : group_capacities) {
    for (size_t j = 0; j < ladder_.size(); ++j) {
      specific_.emplace_back(ladder_.At(j), static_cast<size_t>(capacity),
                             dim_);
    }
  }
}

Result<GuessLadder> CandidateLadder::MakeLadder(
    size_t dim, const StreamingOptions& options) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  return GuessLadder::Create(options.d_min, options.d_max, options.epsilon);
}

bool CandidateLadder::Observe(const StreamPoint& point) {
  FDM_DCHECK(point.coords.size() == dim_);
  FDM_CHECK_MSG(AcceptsGroup(point.group, groups_),
                "stream element group out of range");
  const size_t rungs = blind_.size();
  StreamingCandidate* group_row =
      groups_ == 0
          ? nullptr
          : specific_.data() + static_cast<size_t>(point.group) * rungs;
  ++observed_;
  size_t total_kept = 0;
  for (size_t j = 0; j < rungs; ++j) {
    size_t kept = 0;
    if (blind_[j].TryAdd(point, metric_)) {
      ++kept;
      FreezeIfFull(blind_[j]);
    }
    if (group_row != nullptr && group_row[j].TryAdd(point, metric_)) {
      ++kept;
      FreezeIfFull(group_row[j]);
    }
    rung_inserts_[j] += kept;
    total_kept += kept;
  }
  state_version_ += total_kept;
  return total_kept > 0;
}

size_t CandidateLadder::ObserveBatch(std::span<const StreamPoint> raw_batch) {
  if (raw_batch.empty()) return 0;
  for (const StreamPoint& point : raw_batch) {
    FDM_DCHECK(point.coords.size() == dim_);
    FDM_CHECK_MSG(AcceptsGroup(point.group, groups_),
                  "stream element group out of range");
  }
  observed_ += static_cast<int64_t>(raw_batch.size());
  // Per-batch scratch, reused across batches and thread-local like
  // `StreamingCandidate::TryAddRun`'s, so an idle sink holds none of it:
  // the repacked batch, the per-group positions (computed once and shared
  // read-only by all rungs) and the per-rung insert counts.
  thread_local PackedBatch packed;
  thread_local std::vector<std::vector<size_t>> by_group_scratch;
  thread_local std::vector<size_t> rung_kept_scratch;
  // The rung tasks may run on pool threads, where the names above would
  // denote that thread's scratch: they reach the caller's through these.
  std::vector<std::vector<size_t>>& by_group = by_group_scratch;
  std::vector<size_t>& rung_kept = rung_kept_scratch;
  const std::span<const StreamPoint> batch =
      Contiguous(raw_batch) ? raw_batch : packed.Pack(raw_batch, dim_);
  const size_t rungs = blind_.size();
  if (by_group.size() < groups_) by_group.resize(groups_);
  for (size_t g = 0; g < groups_; ++g) by_group[g].clear();
  if (groups_ > 0) {
    for (size_t t = 0; t < batch.size(); ++t) {
      by_group[static_cast<size_t>(batch[t].group)].push_back(t);
    }
  }
  rung_kept.assign(rungs, 0);
#ifndef FDM_NO_METRICS
  // Per-rung admission-scan latency, sampled 1 batch in 16: always-on
  // timing would read the clock twice per rung per batch (~80 rungs × two
  // ~25ns reads ≈ 10% of a small batch's work), which the micro_obs
  // overhead gate would fail. Sampling keeps the distribution honest —
  // rung choice is not correlated with the batch counter — at amortized
  // sub-1% cost.
  static std::atomic<uint64_t> batch_seq{0};
  const bool sampled =
      (batch_seq.fetch_add(1, std::memory_order_relaxed) & 0xF) == 0;
  static obs::Histogram& rung_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "fdm_ingest_rung_scan_ns",
          "per-rung admission-scan latency per batch (1/16 sampled)");
#endif
  // Task j touches only rung j's candidates and slot j of rung_kept.
  Parallelism::Run(rungs, [&](size_t j) {
#ifndef FDM_NO_METRICS
    // Clock reads only on sampled batches — an unconditional timer would
    // reintroduce the per-rung cost the sampling exists to avoid.
    std::chrono::steady_clock::time_point rung_start;
    if (sampled) rung_start = std::chrono::steady_clock::now();
#endif
    size_t kept = 0;
    StreamingCandidate& blind = blind_[j];
    if (!blind.Full()) {
      kept += blind.TryAddBatch(batch, metric_);
    }
    for (size_t g = 0; g < groups_; ++g) {
      StreamingCandidate& candidate = specific_[g * rungs + j];
      if (candidate.Full()) continue;
      kept += candidate.TryAddBatchIndexed(batch, by_group[g], metric_);
    }
    rung_kept[j] = kept;
#ifndef FDM_NO_METRICS
    if (sampled) {
      rung_hist.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - rung_start)
              .count()));
    }
#endif
  });
  size_t mutations = 0;
  for (size_t j = 0; j < rungs; ++j) {
    if (rung_kept[j] == 0) continue;
    rung_inserts_[j] += rung_kept[j];
    mutations += rung_kept[j];
    // Only a rung that kept a point can have filled a candidate.
    FreezeIfFull(blind_[j]);
    for (size_t g = 0; g < groups_; ++g) {
      FreezeIfFull(specific_[g * rungs + j]);
    }
  }
  state_version_ += mutations;
  return mutations;
}

void CandidateLadder::FreezeIfFull(StreamingCandidate& candidate) {
  // A capacity-0 candidate is full from the start and holds no heap.
  if (!candidate.Full() || candidate.frozen() || candidate.capacity() == 0) {
    return;
  }
  candidate.Freeze(pool_);
}

size_t CandidateLadder::StoredElements() const {
  const std::span<const int64_t> frozen = pool_.entries().ids();
  std::vector<int64_t> ids(frozen.begin(), frozen.end());
  for (const auto* row : {&blind_, &specific_}) {
    for (const StreamingCandidate& c : *row) {
      if (c.frozen()) continue;
      ids.insert(ids.end(), c.points().ids().begin(), c.points().ids().end());
    }
  }
  std::ranges::sort(ids);
  return static_cast<size_t>(std::ranges::unique(ids).begin() - ids.begin());
}

size_t CandidateLadder::CandidateBytes() const {
  size_t bytes = pool_.MemoryBytes();
  for (const auto* row : {&blind_, &specific_}) {
    for (const StreamingCandidate& c : *row) {
      if (!c.frozen()) bytes += c.points().MemoryBytes();
    }
  }
  return bytes;
}

obs::Histogram& CandidateLadder::RungSolveHist() {
  // Rung solves are µs–ms scale, so every sample is recorded (no 1/N
  // sampling like the ingest-side rung-scan histogram needs). Only dirty
  // rungs are timed — a memo hit records nothing.
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_solve_rung_ns", "per-rung post-processing latency in cold Solve()");
  return hist;
}

void CandidateLadder::WriteStreamingHeader(SnapshotWriter& writer) const {
  writer.WriteU64(dim_);
  writer.WriteU8(static_cast<uint8_t>(metric_.kind()));
  writer.WriteDouble(ladder_.d_min());
  writer.WriteDouble(ladder_.d_max());
  writer.WriteDouble(ladder_.epsilon());
  internal::WriteReservedSlot(writer);
  internal::WriteReservedSlot(writer);
}

CandidateLadder::StreamingHeader CandidateLadder::ReadStreamingHeader(
    SnapshotReader& reader) {
  StreamingHeader header;
  header.dim = reader.ReadU64();
  header.metric = internal::ReadMetricKind(reader);
  header.options.d_min = reader.ReadDouble();
  header.options.d_max = reader.ReadDouble();
  header.options.epsilon = reader.ReadDouble();
  internal::SkipReservedSlot(reader);
  internal::SkipReservedSlot(reader);
  return header;
}

void CandidateLadder::WriteState(SnapshotWriter& writer) const {
  writer.WriteI64(observed_);
  writer.WriteU64(state_version_);
  writer.WriteU64(blind_.size());
  for (size_t j = 0; j < blind_.size(); ++j) {
    Points(blind_[j]).Serialize(writer);
    for (size_t g = 0; g < groups_; ++g) {
      Points(specific_[g * blind_.size() + j]).Serialize(writer);
    }
  }
}

Status CandidateLadder::ReadState(SnapshotReader& reader) {
  const int64_t observed = reader.ReadI64();
  const uint64_t state_version = reader.ReadU64();
  const size_t rungs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (rungs != blind_.size()) {
    reader.Fail("rung count " + std::to_string(rungs) +
                " does not match rebuilt ladder of " +
                std::to_string(blind_.size()));
    return reader.status();
  }
  for (size_t j = 0; j < rungs; ++j) {
    internal::RestoreCandidatePoints(reader, blind_[j]);
    for (size_t g = 0; g < groups_; ++g) {
      internal::RestoreCandidatePoints(reader, specific_[g * rungs + j]);
    }
  }
  if (!reader.ok()) return reader.status();
  for (StreamingCandidate& candidate : blind_) FreezeIfFull(candidate);
  for (StreamingCandidate& candidate : specific_) FreezeIfFull(candidate);
  observed_ = observed;
  state_version_ = state_version;
  return Status::Ok();
}

}  // namespace fdm
