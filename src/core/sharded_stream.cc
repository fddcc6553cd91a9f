#include "core/sharded_stream.h"

#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/diversity.h"
#include "core/gmm.h"
#include "core/snapshot_util.h"
#include "core/parallelism.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

ShardedStreamingDm::ShardedStreamingDm(int k, size_t dim, MetricKind metric,
                                       std::vector<StreamingDm> shards)
    : k_(k), dim_(dim), metric_(metric), shards_(std::move(shards)) {}

Result<ShardedStreamingDm> ShardedStreamingDm::Create(
    int k, size_t dim, MetricKind metric, const StreamingOptions& options,
    const ShardedStreamingOptions& sharding) {
  if (sharding.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<StreamingDm> shards;
  shards.reserve(sharding.num_shards);
  for (size_t s = 0; s < sharding.num_shards; ++s) {
    auto shard = StreamingDm::Create(k, dim, metric, options);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard.value()));
  }
  return ShardedStreamingDm(k, dim, metric, std::move(shards));
}

bool ShardedStreamingDm::Observe(const StreamPoint& point) {
  const bool kept =
      shards_[static_cast<size_t>(observed_) % shards_.size()].Observe(point);
  ++observed_;
  return kept;
}

size_t ShardedStreamingDm::ObserveBatch(std::span<const StreamPoint> batch) {
  if (batch.empty()) return 0;
  const size_t num_shards = shards_.size();
  // Continue the round-robin rotation exactly where Observe left it, so
  // mixing Observe and ObserveBatch routes identically to pure Observe.
  const size_t start = static_cast<size_t>(observed_) % num_shards;
  const uint64_t version_before = StateVersion();
  observed_ += static_cast<int64_t>(batch.size());
  Parallelism::Run(num_shards, [&](size_t s) {
    StreamingDm& shard = shards_[s];
    // Shard s receives batch positions t with (start + t) % num_shards == s.
    size_t t = (s + num_shards - start) % num_shards;
    for (; t < batch.size(); t += num_shards) {
      shard.Observe(batch[t]);
    }
  });
  return static_cast<size_t>(StateVersion() - version_before);
}

uint64_t ShardedStreamingDm::StateVersion() const {
  uint64_t version = 0;
  for (const StreamingDm& shard : shards_) version += shard.StateVersion();
  return version;
}

Result<Solution> ShardedStreamingDm::Solve() const {
  // Per-shard solves fan out over the width — shards share no mutable
  // state and each task writes only its own slot. A shard's own
  // rung fan-out is a nested `Run`, which stays inline on its task.
  std::vector<std::optional<Solution>> locals(shards_.size());
  Parallelism::Run(shards_.size(), [&](size_t s) {
    auto local = shards_[s].Solve();
    if (local.ok()) locals[s] = std::move(local.value());
  });
  // Merge: the union of the per-shard solutions is the composed coreset,
  // concatenated in shard order — the same order the sequential loop
  // produced, so the GMM reduce below sees an identical input. Substreams
  // are disjoint, so ids never collide across shards.
  PointBuffer merged(dim_, shards_.size() * static_cast<size_t>(k_));
  for (const std::optional<Solution>& local : locals) {
    if (!local.has_value()) continue;  // under-filled shard contributes nothing
    const PointBuffer& points = local->points;
    for (size_t i = 0; i < points.size(); ++i) merged.Add(points.ViewAt(i));
  }
  if (merged.size() < static_cast<size_t>(k_)) {
    return Status::Infeasible(
        "sharded coresets hold " + std::to_string(merged.size()) +
        " < k=" + std::to_string(k_) +
        " points; stream too small for this shard count");
  }

  // Reduce (post-process once): GMM over the merged coreset, reusing the
  // library's GreedyGmm via a throwaway Dataset view of the union (the
  // union is small — at most num_shards·k points). Selected rows map back
  // to `merged` to preserve the original stream ids and groups.
  Dataset coreset("sharded-coreset", dim_, /*num_groups=*/1, metric_.kind());
  coreset.Reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    coreset.Add(merged.CoordsAt(i), /*group=*/0);
  }
  const std::vector<size_t> selected =
      GreedyGmm(coreset, static_cast<size_t>(k_));
  FDM_CHECK(selected.size() == static_cast<size_t>(k_));

  Solution solution(dim_);
  for (const size_t i : selected) solution.points.Add(merged.ViewAt(i));
  solution.diversity = k_ >= 2
                           ? MinPairwiseDistance(solution.points, metric_)
                           : std::numeric_limits<double>::infinity();
  solution.mu = 0.0;  // post-processed selection, no single winning guess
  return solution;
}

Status ShardedStreamingDm::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteI32(k_);
  writer.WriteU64(dim_);
  writer.WriteU8(static_cast<uint8_t>(metric_.kind()));
  internal::WriteReservedSlot(writer);
  internal::WriteReservedSlot(writer);
  writer.WriteI64(observed_);
  writer.WriteU64(shards_.size());
  for (const StreamingDm& shard : shards_) {
    if (Status s = shard.Snapshot(writer); !s.ok()) return s;
  }
  return Status::Ok();
}

Result<ShardedStreamingDm> ShardedStreamingDm::Restore(SnapshotReader& reader) {
  if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
  const int k = reader.ReadI32();
  const size_t dim = reader.ReadU64();
  const MetricKind metric = internal::ReadMetricKind(reader);
  internal::SkipReservedSlot(reader);
  internal::SkipReservedSlot(reader);
  const int64_t observed = reader.ReadI64();
  const size_t num_shards = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (num_shards == 0 || num_shards > (1u << 20)) {
    reader.Fail("implausible shard count " + std::to_string(num_shards));
    return reader.status();
  }
  std::vector<StreamingDm> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = StreamingDm::Restore(reader);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard.value()));
  }
  ShardedStreamingDm driver(k, dim, metric, std::move(shards));
  driver.observed_ = observed;
  return driver;
}

size_t ShardedStreamingDm::StoredElements() const {
  size_t total = 0;
  for (const StreamingDm& shard : shards_) total += shard.StoredElements();
  return total;
}

}  // namespace fdm
