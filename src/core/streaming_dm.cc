#include "core/streaming_dm.h"

#include <set>
#include <string>

#include "core/batch_replay.h"
#include "core/diversity.h"
#include "core/snapshot_util.h"
#include "core/parallelism.h"
#include "geo/point_buffer_io.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

StreamingDm::StreamingDm(int k, size_t dim, MetricKind metric,
                         GuessLadder ladder)
    : k_(k), dim_(dim), metric_(metric), ladder_(std::move(ladder)) {
  candidates_.reserve(ladder_.size());
  for (size_t j = 0; j < ladder_.size(); ++j) {
    candidates_.emplace_back(ladder_.At(j), static_cast<size_t>(k_), dim_);
  }
}

Result<StreamingDm> StreamingDm::Create(int k, size_t dim, MetricKind metric,
                                        const StreamingOptions& options) {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " + std::to_string(k));
  }
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  auto ladder =
      GuessLadder::Create(options.d_min, options.d_max, options.epsilon);
  if (!ladder.ok()) return ladder.status();
  return StreamingDm(k, dim, metric, std::move(ladder.value()));
}

bool StreamingDm::Observe(const StreamPoint& point) {
  FDM_DCHECK(point.coords.size() == dim_);
  ++observed_;
  size_t kept = 0;
  for (auto& candidate : candidates_) {
    if (candidate.TryAdd(point, metric_)) ++kept;
  }
  state_version_ += kept;
  return kept > 0;
}

size_t StreamingDm::ObserveBatch(std::span<const StreamPoint> raw_batch) {
  if (raw_batch.empty()) return 0;
  for (const StreamPoint& point : raw_batch) {
    FDM_DCHECK(point.coords.size() == dim_);
    (void)point;
  }
  observed_ += static_cast<int64_t>(raw_batch.size());
  const std::span<const StreamPoint> batch = packed_.Pack(raw_batch, dim_);
  // Rung-major replay through the shared engine (the group-free special
  // case: no group-specific candidates, so `num_groups = 0` and the
  // specific accessor is never invoked): each task owns one candidate and
  // replays the batch in stream order, so per-rung state evolves exactly
  // as under per-element Observe, with the full-rung skip and the
  // chunking-invariant kept counts in one place for all ladder sinks.
  rung_kept_.assign(candidates_.size(), 0);
  ReplayBatchRungMajor(
      candidates_.size(), /*num_groups=*/0, batch, /*by_group=*/nullptr,
      metric_,
      [&](size_t j) -> StreamingCandidate& { return candidates_[j]; },
      [&](int, size_t) -> StreamingCandidate& { return candidates_.front(); },
      rung_kept_.data());
  size_t mutations = 0;
  for (const size_t kept : rung_kept_) mutations += kept;
  state_version_ += mutations;
  return mutations;
}

Result<Solution> StreamingDm::Solve() const {
  // Phase 1 — per-candidate diversity, fanned out over the width:
  // each task writes only its own slot, and `MinPairwiseDistance` touches
  // nothing but the candidate's points and local scratch. Phase 2 — the
  // winner scan — stays a sequential ascending-µ pass with strict `>`, so
  // the chosen rung (and hence the output) is bit-identical to the
  // sequential path at any thread count.
  std::vector<double> diversity(candidates_.size(), -1.0);
  std::vector<uint8_t> full(candidates_.size(), 0);
  Parallelism::Run(candidates_.size(), [&](size_t j) {
    const StreamingCandidate& candidate = candidates_[j];
    if (!candidate.Full()) return;
    full[j] = 1;
    diversity[j] = k_ >= 2
                       ? MinPairwiseDistance(candidate.points(), metric_)
                       : candidate.mu();
  });
  const StreamingCandidate* best = nullptr;
  double best_div = -1.0;
  for (size_t j = 0; j < candidates_.size(); ++j) {
    if (!full[j]) continue;
    if (diversity[j] > best_div) {
      best_div = diversity[j];
      best = &candidates_[j];
    }
  }
  if (best == nullptr) {
    return Status::Infeasible(
        "no candidate reached k=" + std::to_string(k_) +
        " elements; the stream has fewer than k sufficiently distinct "
        "points or d_min is overestimated");
  }
  Solution solution(dim_);
  solution.points = best->points();
  solution.diversity = best_div;
  solution.mu = best->mu();
  return solution;
}

Status StreamingDm::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteI32(k_);
  internal::WriteStreamingHeader(writer, dim_, metric_, ladder_);
  writer.WriteI64(observed_);
  writer.WriteU64(state_version_);
  writer.WriteU64(candidates_.size());
  for (const StreamingCandidate& candidate : candidates_) {
    SerializePointBuffer(writer, candidate.points());
  }
  return Status::Ok();
}

Result<StreamingDm> StreamingDm::Restore(SnapshotReader& reader) {
  if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
  const int k = reader.ReadI32();
  const internal::StreamingHeader header =
      internal::ReadStreamingHeader(reader);
  const int64_t observed = reader.ReadI64();
  const uint64_t state_version = reader.ReadU64();
  const size_t rungs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // The guess ladder is a pure function of (d_min, d_max, ε), so Create
  // rebuilds the rung structure deterministically; the snapshot carries
  // only the retained points.
  auto created = Create(k, header.dim, header.metric, header.options);
  if (!created.ok()) return created.status();
  StreamingDm algo = std::move(created.value());
  if (rungs != algo.candidates_.size()) {
    reader.Fail("rung count " + std::to_string(rungs) +
                " does not match rebuilt ladder of " +
                std::to_string(algo.candidates_.size()));
    return reader.status();
  }
  for (StreamingCandidate& candidate : algo.candidates_) {
    internal::RestoreCandidatePoints(reader, candidate);
  }
  if (!reader.ok()) return reader.status();
  algo.observed_ = observed;
  algo.state_version_ = state_version;
  return algo;
}

size_t StreamingDm::StoredElements() const {
  std::set<int64_t> distinct;
  for (const auto& candidate : candidates_) {
    for (size_t i = 0; i < candidate.points().size(); ++i) {
      distinct.insert(candidate.points().IdAt(i));
    }
  }
  return distinct.size();
}

}  // namespace fdm
