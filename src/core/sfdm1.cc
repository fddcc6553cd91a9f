#include "core/sfdm1.h"

#include <limits>
#include <optional>
#include <set>
#include <string>

#include "core/batch_replay.h"
#include "core/diversity.h"
#include "core/snapshot_util.h"
#include "core/parallelism.h"
#include "geo/point_buffer_io.h"
#include "obs/metrics.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

namespace {

// Per-rung post-processing latency inside a cold Solve(), for both ladder
// algorithms (SFDM-1 balancing, SFDM-2 matroid intersection). Rung solves
// are µs–ms scale, so every sample is recorded (no 1/N sampling like the
// ingest-side rung-scan histogram needs).
obs::Histogram& RungSolveHist() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_solve_rung_ns", "per-rung post-processing latency in cold Solve()");
  return hist;
}

}  // namespace

Sfdm1::Sfdm1(FairnessConstraint constraint, size_t dim, MetricKind metric,
             GuessLadder ladder)
    : constraint_(std::move(constraint)),
      k_(constraint_.TotalK()),
      dim_(dim),
      metric_(metric),
      ladder_(std::move(ladder)) {
  blind_.reserve(ladder_.size());
  for (int i = 0; i < 2; ++i) specific_[i].reserve(ladder_.size());
  for (size_t j = 0; j < ladder_.size(); ++j) {
    const double mu = ladder_.At(j);
    blind_.emplace_back(mu, static_cast<size_t>(k_), dim_);
    for (int i = 0; i < 2; ++i) {
      specific_[i].emplace_back(
          mu, static_cast<size_t>(constraint_.quotas[static_cast<size_t>(i)]),
          dim_);
    }
  }
}

Result<Sfdm1> Sfdm1::Create(const FairnessConstraint& constraint, size_t dim,
                            MetricKind metric,
                            const StreamingOptions& options) {
  if (Status s = constraint.Validate(); !s.ok()) return s;
  if (constraint.num_groups() != 2) {
    return Status::Unsupported(
        "SFDM1 requires exactly 2 groups, got " +
        std::to_string(constraint.num_groups()) + "; use SFDM2");
  }
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  auto ladder =
      GuessLadder::Create(options.d_min, options.d_max, options.epsilon);
  if (!ladder.ok()) return ladder.status();
  return Sfdm1(constraint, dim, metric, std::move(ladder.value()));
}

bool Sfdm1::Observe(const StreamPoint& point) {
  FDM_DCHECK(point.coords.size() == dim_);
  FDM_CHECK_MSG(point.group == 0 || point.group == 1,
                "SFDM1 stream element outside groups {0,1}");
  ++observed_;
  size_t kept = 0;
  for (size_t j = 0; j < ladder_.size(); ++j) {
    if (blind_[j].TryAdd(point, metric_)) ++kept;
    if (specific_[point.group][j].TryAdd(point, metric_)) ++kept;
  }
  state_version_ += kept;
  return kept > 0;
}

size_t Sfdm1::ObserveBatch(std::span<const StreamPoint> raw_batch) {
  if (raw_batch.empty()) return 0;
  for (const StreamPoint& point : raw_batch) {
    FDM_DCHECK(point.coords.size() == dim_);
    FDM_CHECK_MSG(point.group == 0 || point.group == 1,
                  "SFDM1 stream element outside groups {0,1}");
  }
  observed_ += static_cast<int64_t>(raw_batch.size());
  const std::span<const StreamPoint> batch = packed_.Pack(raw_batch, dim_);
  // Per-group positions, computed once and shared read-only by all rungs
  // (member scratch, reused across batches like packed_).
  for (auto& positions : by_group_) positions.clear();
  for (size_t t = 0; t < batch.size(); ++t) {
    by_group_[batch[t].group].push_back(t);
  }
  rung_kept_.assign(ladder_.size(), 0);
  ReplayBatchRungMajor(
      ladder_.size(), /*num_groups=*/2, batch, by_group_, metric_,
      [&](size_t j) -> StreamingCandidate& { return blind_[j]; },
      [&](int g, size_t j) -> StreamingCandidate& { return specific_[g][j]; },
      rung_kept_.data());
  size_t mutations = 0;
  for (const size_t kept : rung_kept_) mutations += kept;
  state_version_ += mutations;
  return mutations;
}

PointBuffer Sfdm1::BalancedCandidate(size_t j) const {
  // Work on a copy of the group-blind candidate so Solve() stays const and
  // repeatable mid-stream.
  PointBuffer working = blind_[j].points();

  const std::vector<int> counts = GroupCounts(working, 2);
  int under = -1;  // the under-filled group i_u, if any
  for (int g = 0; g < 2; ++g) {
    if (counts[static_cast<size_t>(g)] <
        constraint_.quotas[static_cast<size_t>(g)]) {
      under = g;
    }
  }
  if (under < 0) return working;  // already fair (|S_µ| = k and no deficit)

  const int quota_under = constraint_.quotas[static_cast<size_t>(under)];
  const PointBuffer& donors = specific_[under][j].points();

  // The under-filled side of `working`, mirrored into the kernel block
  // layout: both balancing loops scan only that side, so each scan becomes
  // one dispatched min-reduction instead of |working| scalar Metric calls.
  // The mirror holds the same point set as the scalar filter (donors join
  // it on insertion; victims are never in it), and `MinDistanceTo` is the
  // exact minimum of the same per-pair values (finishing the raw minimum
  // commutes with the monotone sqrt), so every argmax/argmin decision is
  // bit-identical to the scalar loops.
  PointBuffer under_side(dim_, static_cast<size_t>(k_) + 1);
  for (size_t i = 0; i < working.size(); ++i) {
    if (working.GroupAt(i) == under) under_side.AddFrom(working, i);
  }
  std::vector<double> query(dim_);  // a donor or victim, gathered

  // Algorithm 2, lines 12–14: insert the donor farthest from the selected
  // elements of the under-filled group, repeatedly.
  while (static_cast<int>(under_side.size()) < quota_under) {
    double best_distance = -1.0;
    size_t best_donor = donors.size();
    for (size_t d = 0; d < donors.size(); ++d) {
      if (working.ContainsId(donors.IdAt(d))) continue;
      // d(x, S_µ ∩ X_iu): +infinity when the group is empty in S_µ.
      const double dist =
          under_side.MinDistanceTo(donors.GatherCoords(d, query), metric_);
      if (dist > best_distance) {
        best_distance = dist;
        best_donor = d;
      }
    }
    FDM_CHECK_MSG(best_donor < donors.size(),
                  "SFDM1 balance: donor pool exhausted (U' membership "
                  "should prevent this)");
    working.AddFrom(donors, best_donor);
    under_side.AddFrom(donors, best_donor);
  }

  // Algorithm 2, lines 15–17: delete the other-group element closest to the
  // (augmented) under-filled side until |S_µ| = k.
  while (static_cast<int>(working.size()) > k_) {
    double best_distance = std::numeric_limits<double>::infinity();
    size_t victim = working.size();
    for (size_t i = 0; i < working.size(); ++i) {
      if (working.GroupAt(i) == under) continue;
      const double dist =
          under_side.MinDistanceTo(working.GatherCoords(i, query), metric_);
      if (dist < best_distance) {
        best_distance = dist;
        victim = i;
      }
    }
    FDM_CHECK(victim < working.size());
    working.RemoveSwap(victim);
  }
  return working;
}

Result<Solution> Sfdm1::Solve() const {
  const size_t rungs = ladder_.size();
  // Phase 1 — balance every eligible rung, fanned out over the width:
  // task j reads only rung j's candidates and writes only slot j
  // (`BalancedCandidate` works on copies, so concurrent tasks share nothing
  // mutable). Phase 2 — the best-rung selection — stays a sequential
  // ascending-µ scan with strict `>`, so the winner (and hence the output)
  // is bit-identical to the sequential path at any thread count.
  std::vector<std::optional<PointBuffer>> balanced(rungs);
  std::vector<double> diversity(rungs, -1.0);
  Parallelism::Run(rungs, [&](size_t j) {
    // U' = {µ : |S_µ| = k ∧ |S_µ,i| = k_i for both i} (line 9).
    if (!blind_[j].Full() || !specific_[0][j].Full() ||
        !specific_[1][j].Full()) {
      return;
    }
    obs::ScopedTimer timer(RungSolveHist());
    balanced[j] = BalancedCandidate(j);
    FDM_DCHECK(SatisfiesQuotas(*balanced[j], constraint_.quotas));
    diversity[j] = MinPairwiseDistance(*balanced[j], metric_);
  });
  Solution best(dim_);
  best.diversity = -1.0;
  bool found = false;
  for (size_t j = 0; j < rungs; ++j) {
    if (!balanced[j].has_value()) continue;
    if (diversity[j] > best.diversity) {
      best.points = std::move(*balanced[j]);
      best.diversity = diversity[j];
      best.mu = ladder_.At(j);
      found = true;
    }
  }
  if (!found) {
    return Status::Infeasible(
        "no guess µ has full group-blind and group-specific candidates; "
        "stream too small or d_min overestimated");
  }
  return best;
}

size_t Sfdm1::StoredElements() const {
  std::set<int64_t> distinct;
  auto collect = [&distinct](const std::vector<StreamingCandidate>& cands) {
    for (const auto& c : cands) {
      for (size_t i = 0; i < c.points().size(); ++i) {
        distinct.insert(c.points().IdAt(i));
      }
    }
  };
  collect(blind_);
  collect(specific_[0]);
  collect(specific_[1]);
  return distinct.size();
}

Status Sfdm1::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteU64(constraint_.quotas.size());
  for (const int quota : constraint_.quotas) writer.WriteI32(quota);
  internal::WriteStreamingHeader(writer, dim_, metric_, ladder_);
  writer.WriteI64(observed_);
  writer.WriteU64(state_version_);
  writer.WriteU64(ladder_.size());
  // Rung-major: S_µj, then S_µj,0, S_µj,1 — the read side mirrors this.
  for (size_t j = 0; j < ladder_.size(); ++j) {
    SerializePointBuffer(writer, blind_[j].points());
    SerializePointBuffer(writer, specific_[0][j].points());
    SerializePointBuffer(writer, specific_[1][j].points());
  }
  return Status::Ok();
}

Result<Sfdm1> Sfdm1::Restore(SnapshotReader& reader) {
  if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
  FairnessConstraint constraint;
  const size_t num_groups = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (num_groups != 2) {
    reader.Fail("SFDM1 snapshot must have 2 groups, has " +
                std::to_string(num_groups));
    return reader.status();
  }
  for (size_t g = 0; g < num_groups; ++g) {
    constraint.quotas.push_back(reader.ReadI32());
  }
  const internal::StreamingHeader header =
      internal::ReadStreamingHeader(reader);
  const int64_t observed = reader.ReadI64();
  const uint64_t state_version = reader.ReadU64();
  const size_t rungs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  auto created = Create(constraint, header.dim, header.metric, header.options);
  if (!created.ok()) return created.status();
  Sfdm1 algo = std::move(created.value());
  if (rungs != algo.ladder_.size()) {
    reader.Fail("rung count " + std::to_string(rungs) +
                " does not match rebuilt ladder of " +
                std::to_string(algo.ladder_.size()));
    return reader.status();
  }
  for (size_t j = 0; j < rungs; ++j) {
    internal::RestoreCandidatePoints(reader, algo.blind_[j]);
    internal::RestoreCandidatePoints(reader, algo.specific_[0][j]);
    internal::RestoreCandidatePoints(reader, algo.specific_[1][j]);
  }
  if (!reader.ok()) return reader.status();
  algo.observed_ = observed;
  algo.state_version_ = state_version;
  return algo;
}

}  // namespace fdm
