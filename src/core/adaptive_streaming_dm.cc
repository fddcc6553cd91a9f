#include "core/adaptive_streaming_dm.h"

#include <set>
#include <string>
#include <vector>

#include "core/diversity.h"
#include "core/snapshot_util.h"
#include "core/parallelism.h"
#include "geo/point_buffer_io.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

Result<AdaptiveStreamingDm> AdaptiveStreamingDm::Create(int k, size_t dim,
                                                        MetricKind metric,
                                                        double epsilon,
                                                        size_t max_rungs) {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " + std::to_string(k));
  }
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0,1)");
  }
  if (max_rungs < 1) {
    return Status::InvalidArgument("max_rungs must be >= 1");
  }
  AdaptiveStreamingDm algo(k, dim, metric, epsilon, max_rungs);
  algo.pending_ = PointBuffer(dim, 1);
  return algo;
}

void AdaptiveStreamingDm::GrowUp() {
  const StreamingCandidate& top = rungs_.back();
  const double new_mu = top.mu() / (1.0 - epsilon_);
  StreamingCandidate rung(new_mu, static_cast<size_t>(k_), dim_);
  // Seed by greedy filtering: keep points of the old top candidate that
  // are pairwise >= new_mu (scan in insertion order; TryAdd enforces the
  // invariant). Capacity cannot overflow: the source has <= k points.
  for (size_t i = 0; i < top.points().size(); ++i) {
    rung.TryAdd(top.points().ViewAt(i), metric_);
  }
  rungs_.push_back(std::move(rung));
}

void AdaptiveStreamingDm::GrowDown() {
  const StreamingCandidate& bottom = rungs_.front();
  const double new_mu = bottom.mu() * (1.0 - epsilon_);
  StreamingCandidate rung(new_mu, static_cast<size_t>(k_), dim_);
  // Seed with a copy: the old bottom's points are pairwise >= µ_old >
  // new_mu, so the invariant holds and every TryAdd below succeeds.
  for (size_t i = 0; i < bottom.points().size(); ++i) {
    const bool added = rung.TryAdd(bottom.points().ViewAt(i), metric_);
    FDM_DCHECK(added);
    (void)added;
  }
  rungs_.push_front(std::move(rung));
}

bool AdaptiveStreamingDm::Observe(const StreamPoint& point) {
  FDM_DCHECK(point.coords.size() == dim_);
  ++observed_;
  bool mutated = false;

  if (rungs_.empty()) {
    if (!pending_valid_) {
      pending_.Add(point);
      pending_valid_ = true;
      ++state_version_;
      return true;
    }
    const double d =
        metric_(pending_.CoordsAt(0).data(), point.coords.data(), dim_);
    // Duplicate of the first point — no information, nothing mutated.
    if (d <= 0.0) return false;
    // Seed the ladder at the first observed nonzero distance and replay
    // the held first point.
    StreamingCandidate rung(d, static_cast<size_t>(k_), dim_);
    rung.TryAdd(pending_.ViewAt(0), metric_);
    rungs_.push_back(std::move(rung));
    mutated = true;
  }

  // Extend downward while the bottom rung would reject the point for
  // being too close, yet is not full — a smaller guess may need it.
  while (rungs_.size() < max_rungs_) {
    const StreamingCandidate& bottom = rungs_.front();
    if (bottom.Full()) break;
    const double d = bottom.points().MinDistanceTo(point.coords, metric_);
    if (d <= 0.0 || d >= bottom.mu()) break;
    GrowDown();
    mutated = true;
  }

  // Extend upward while the point is far enough from the top candidate
  // that a higher guess could also hold it — OPT may exceed the ladder.
  while (rungs_.size() < max_rungs_) {
    const StreamingCandidate& top = rungs_.back();
    if (top.points().empty()) break;
    const double d = top.points().MinDistanceTo(point.coords, metric_);
    if (d < top.mu() / (1.0 - epsilon_)) break;
    GrowUp();
    mutated = true;
  }

  for (auto& rung : rungs_) {
    if (rung.TryAdd(point, metric_)) mutated = true;
  }
  if (mutated) ++state_version_;
  return mutated;
}

Result<Solution> AdaptiveStreamingDm::Solve() const {
  // Per-rung diversity over the width (each task writes only its own
  // slot), then a sequential ascending-µ winner scan with strict `>` — the
  // same split as the fixed-ladder sinks, so output is bit-identical to
  // the sequential path at any thread count.
  std::vector<double> diversity(rungs_.size(), -1.0);
  std::vector<uint8_t> full(rungs_.size(), 0);
  Parallelism::Run(rungs_.size(), [&](size_t j) {
    const StreamingCandidate& rung = rungs_[j];
    if (!rung.Full()) return;
    full[j] = 1;
    diversity[j] =
        k_ >= 2 ? MinPairwiseDistance(rung.points(), metric_) : rung.mu();
  });
  const StreamingCandidate* best = nullptr;
  double best_div = -1.0;
  for (size_t j = 0; j < rungs_.size(); ++j) {
    if (!full[j]) continue;
    if (diversity[j] > best_div) {
      best_div = diversity[j];
      best = &rungs_[j];
    }
  }
  if (best == nullptr) {
    return Status::Infeasible(
        "no candidate reached k=" + std::to_string(k_) +
        " elements; stream has fewer than k sufficiently distinct points");
  }
  Solution solution(dim_);
  for (size_t i = 0; i < best->points().size(); ++i) {
    solution.points.Add(best->points().ViewAt(i));
  }
  solution.diversity = best_div;
  solution.mu = best->mu();
  return solution;
}

Status AdaptiveStreamingDm::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteI32(k_);
  writer.WriteU64(dim_);
  writer.WriteU8(static_cast<uint8_t>(metric_.kind()));
  writer.WriteDouble(epsilon_);
  writer.WriteU64(max_rungs_);
  internal::WriteReservedSlot(writer);
  writer.WriteI64(observed_);
  writer.WriteU64(state_version_);
  writer.WriteBool(pending_valid_);
  SerializePointBuffer(writer, pending_);
  writer.WriteU64(rungs_.size());
  for (const StreamingCandidate& rung : rungs_) {
    writer.WriteDouble(rung.mu());
    SerializePointBuffer(writer, rung.points());
  }
  return Status::Ok();
}

Result<AdaptiveStreamingDm> AdaptiveStreamingDm::Restore(
    SnapshotReader& reader) {
  if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
  const int k = reader.ReadI32();
  const size_t dim = reader.ReadU64();
  const MetricKind metric = internal::ReadMetricKind(reader);
  const double epsilon = reader.ReadDouble();
  const size_t max_rungs = reader.ReadU64();
  internal::SkipReservedSlot(reader);
  const int64_t observed = reader.ReadI64();
  const uint64_t state_version = reader.ReadU64();
  const bool pending_valid = reader.ReadBool();
  if (!reader.ok()) return reader.status();
  auto created = Create(k, dim, metric, epsilon, max_rungs);
  if (!created.ok()) return created.status();
  AdaptiveStreamingDm algo = std::move(created.value());
  DeserializePointBuffer(reader, algo.pending_);
  const size_t rungs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (rungs > max_rungs) {
    reader.Fail("rung count " + std::to_string(rungs) + " exceeds max_rungs " +
                std::to_string(max_rungs));
    return reader.status();
  }
  for (size_t j = 0; j < rungs; ++j) {
    const double mu = reader.ReadDouble();
    if (!reader.ok()) return reader.status();
    StreamingCandidate rung(mu, static_cast<size_t>(k), dim);
    internal::RestoreCandidatePoints(reader, rung);
    if (!reader.ok()) return reader.status();
    algo.rungs_.push_back(std::move(rung));
  }
  algo.pending_valid_ = pending_valid;
  algo.observed_ = observed;
  algo.state_version_ = state_version;
  return algo;
}

size_t AdaptiveStreamingDm::StoredElements() const {
  std::set<int64_t> distinct;
  for (const auto& rung : rungs_) {
    for (size_t i = 0; i < rung.points().size(); ++i) {
      distinct.insert(rung.points().IdAt(i));
    }
  }
  if (pending_valid_ && rungs_.empty()) distinct.insert(pending_.IdAt(0));
  return distinct.size();
}

}  // namespace fdm
