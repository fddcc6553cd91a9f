#include "core/sfdm2.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>

#include "core/batch_replay.h"
#include "core/clustering.h"
#include "core/diversity.h"
#include "core/snapshot_util.h"
#include "core/parallelism.h"
#include "geo/point_buffer_io.h"
#include "util/binary_io.h"
#include "core/matroid.h"
#include "core/matroid_intersection.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace fdm {

namespace {

// Per-rung post-processing latency inside a cold Solve(); shared with the
// SFDM-1 balancing path under the same metric name. Only dirty rungs are
// timed — a warm memo hit records nothing.
obs::Histogram& RungSolveHist() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_solve_rung_ns", "per-rung post-processing latency in cold Solve()");
  return hist;
}

}  // namespace

Sfdm2::Sfdm2(FairnessConstraint constraint, size_t dim, MetricKind metric,
             GuessLadder ladder)
    : constraint_(std::move(constraint)),
      k_(constraint_.TotalK()),
      m_(constraint_.num_groups()),
      dim_(dim),
      metric_(metric),
      ladder_(std::move(ladder)),
      rung_version_(ladder_.size(), 0),
      rung_solve_(ladder_.size()) {
  blind_.reserve(ladder_.size());
  specific_.reserve(ladder_.size() * static_cast<size_t>(m_));
  for (size_t j = 0; j < ladder_.size(); ++j) {
    blind_.emplace_back(ladder_.At(j), static_cast<size_t>(k_), dim_);
  }
  for (int i = 0; i < m_; ++i) {
    for (size_t j = 0; j < ladder_.size(); ++j) {
      // Group-specific capacity is k, not k_i (the Algorithm 3 deviation
      // from SFDM1 that Lemma 4's Case 2 relies on).
      specific_.emplace_back(ladder_.At(j), static_cast<size_t>(k_), dim_);
    }
  }
}

Result<Sfdm2> Sfdm2::Create(const FairnessConstraint& constraint, size_t dim,
                            MetricKind metric,
                            const StreamingOptions& options) {
  if (Status s = constraint.Validate(); !s.ok()) return s;
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  auto ladder =
      GuessLadder::Create(options.d_min, options.d_max, options.epsilon);
  if (!ladder.ok()) return ladder.status();
  return Sfdm2(constraint, dim, metric, std::move(ladder.value()));
}

bool Sfdm2::Observe(const StreamPoint& point) {
  FDM_DCHECK(point.coords.size() == dim_);
  FDM_CHECK_MSG(point.group >= 0 && point.group < m_,
                "stream element group out of range");
  ++observed_;
  const size_t rungs = ladder_.size();
  StreamingCandidate* group_row =
      specific_.data() + static_cast<size_t>(point.group) * rungs;
  size_t total_kept = 0;
  for (size_t j = 0; j < rungs; ++j) {
    size_t kept = 0;
    if (blind_[j].TryAdd(point, metric_)) ++kept;
    if (group_row[j].TryAdd(point, metric_)) ++kept;
    rung_version_[j] += kept;
    total_kept += kept;
  }
  state_version_ += total_kept;
  return total_kept > 0;
}

size_t Sfdm2::ObserveBatch(std::span<const StreamPoint> raw_batch) {
  if (raw_batch.empty()) return 0;
  for (const StreamPoint& point : raw_batch) {
    FDM_DCHECK(point.coords.size() == dim_);
    FDM_CHECK_MSG(point.group >= 0 && point.group < m_,
                  "stream element group out of range");
  }
  observed_ += static_cast<int64_t>(raw_batch.size());
  const std::span<const StreamPoint> batch = packed_.Pack(raw_batch, dim_);
  const size_t rungs = ladder_.size();
  // Per-group positions, computed once and shared read-only by all rungs
  // (member scratch, reused across batches like packed_).
  by_group_.resize(static_cast<size_t>(m_));
  for (auto& positions : by_group_) positions.clear();
  for (size_t t = 0; t < batch.size(); ++t) {
    by_group_[static_cast<size_t>(batch[t].group)].push_back(t);
  }
  rung_kept_.assign(rungs, 0);
  ReplayBatchRungMajor(
      rungs, m_, batch, by_group_.data(), metric_,
      [&](size_t j) -> StreamingCandidate& { return blind_[j]; },
      [&](int g, size_t j) -> StreamingCandidate& {
        return specific_[static_cast<size_t>(g) * rungs + j];
      },
      rung_kept_.data());
  size_t mutations = 0;
  for (size_t j = 0; j < rungs; ++j) {
    rung_version_[j] += rung_kept_[j];
    mutations += rung_kept_[j];
  }
  state_version_ += mutations;
  return mutations;
}

void Sfdm2::SolveRung(size_t j, RungSolve& memo) const {
  memo.picks.clear();
  const size_t rungs = ladder_.size();
  // U' membership for this guess: |S_µ| = k ∧ |S_µ,i| >= k_i ∀i (line 9).
  if (!blind_[j].Full()) return;
  for (int i = 0; i < m_; ++i) {
    const auto& cand = specific_[static_cast<size_t>(i) * rungs + j];
    if (static_cast<int>(cand.points().size()) <
        constraint_.quotas[static_cast<size_t>(i)]) {
      return;
    }
  }
  const double mu = ladder_.At(j);

  // S_all = S_µ ∪ (∪_i S_µ,i), deduplicated by element id (line 12): the
  // first copy of an id wins, and `origin` records where it sits. The
  // blind candidate's elements come first so the initial partial solution
  // can be addressed by ground-set position.
  PointBuffer ground(dim_, static_cast<size_t>(k_ * (m_ + 1)));
  std::vector<std::pair<uint32_t, uint32_t>> origin;
  std::unordered_set<int64_t> seen;
  size_t blind_count = 0;
  for (size_t slot = 0; slot <= static_cast<size_t>(m_); ++slot) {
    const PointBuffer& cand = RungCandidate(j, slot);
    for (size_t i = 0; i < cand.size(); ++i) {
      if (!seen.insert(cand.IdAt(i)).second) continue;
      ground.AddFrom(cand, i);
      origin.emplace_back(static_cast<uint32_t>(slot),
                          static_cast<uint32_t>(i));
    }
    if (slot == 0) blind_count = ground.size();
  }
  const int l = static_cast<int>(ground.size());

  // Initial partial solution S'_µ: min(k_i, |S_µ ∩ X_i|) elements per
  // group, taken from S_µ in arrival order (line 11). The warm-start
  // ablation replaces it with ∅ (pure Cunningham, FairFlow-style).
  std::vector<int> initial;
  if (warm_start_) {
    std::vector<int> taken(static_cast<size_t>(m_), 0);
    for (size_t i = 0; i < blind_count; ++i) {
      const int g = ground.GroupAt(i);
      if (taken[static_cast<size_t>(g)] <
          constraint_.quotas[static_cast<size_t>(g)]) {
        initial.push_back(static_cast<int>(i));
        ++taken[static_cast<size_t>(g)];
      }
    }
  }

  // Threshold clustering at µ/(m+1) (lines 13–16).
  const std::vector<int> cluster_of =
      ThresholdClusters(ground, metric_, mu / static_cast<double>(m_ + 1));
  int num_clusters = 0;
  for (const int c : cluster_of) {
    if (c + 1 > num_clusters) num_clusters = c + 1;
  }

  // M1: fairness partition matroid; M2: one-per-cluster matroid
  // (line 17).
  std::vector<int> group_labels(static_cast<size_t>(l));
  for (int i = 0; i < l; ++i) {
    group_labels[static_cast<size_t>(i)] =
        ground.GroupAt(static_cast<size_t>(i));
  }
  const PartitionMatroid m1(group_labels, constraint_.quotas);
  const PartitionMatroid m2(
      cluster_of, std::vector<int>(static_cast<size_t>(num_clusters), 1));

  // Algorithm 4 with farthest-first greedy inserts (line 18). The member
  // set is mirrored into the kernel block layout so each ground-set scan
  // is one dispatched min-reduction instead of |members| scalar Metric
  // calls. The greedy phase only appends to the member set, so the mirror
  // usually extends by the new members; any other change (an augmentation
  // rebuilt the set) rebuilds the mirror. `MinDistanceTo` is the exact
  // minimum of the same per-pair values the scalar loop produced
  // (finishing the raw minimum commutes with the monotone, correctly
  // rounded sqrt), so augmentation decisions are bit-identical.
  PointBuffer member_mirror(dim_, static_cast<size_t>(k_));
  std::vector<int> mirrored;
  std::vector<double> query(dim_);  // ground point `x`, gathered
  auto distance_to_set = [&](int x, std::span<const int> members) {
    const bool mirror_is_prefix =
        mirrored.size() <= members.size() &&
        std::equal(mirrored.begin(), mirrored.end(), members.begin());
    if (!mirror_is_prefix) {
      member_mirror.Clear();
      mirrored.clear();
    }
    for (size_t i = mirrored.size(); i < members.size(); ++i) {
      member_mirror.AddFrom(ground, static_cast<size_t>(members[i]));
      mirrored.push_back(members[i]);
    }
    return member_mirror.MinDistanceTo(
        ground.GatherCoords(static_cast<size_t>(x), query), metric_);
  };
  const std::vector<int> result = MaxCardinalityMatroidIntersection(
      m1, m2, initial,
      greedy_augmentation_ ? DistanceToSetFn(distance_to_set) : nullptr);
  if (static_cast<int>(result.size()) != k_) return;

  PointBuffer selected(dim_, result.size());
  for (const int e : result) {
    selected.AddFrom(ground, static_cast<size_t>(e));
    memo.picks.push_back(origin[static_cast<size_t>(e)]);
  }
  FDM_DCHECK(SatisfiesQuotas(selected, constraint_.quotas));
  memo.diversity = MinPairwiseDistance(selected, metric_);
}

Result<Solution> Sfdm2::Solve() const {
  const size_t rungs = ladder_.size();

  // Phase 1 — memo fill, fanned out over the width: re-run the
  // post-processing only for rungs whose candidates changed since the
  // memoized run. A rung's outcome is a pure function of its own
  // candidates (and the ablation knobs, which invalidate the memo when
  // flipped), so reusing it is exact, and task j touches only rung j's
  // candidates and its own `rung_solve_[j]` slot — `SolveRung` builds all
  // of its scratch (ground set, cluster labels, kernel mirrors) locally,
  // so concurrent tasks share nothing mutable.
  Parallelism::Run(rungs, [this](size_t j) {
    RungSolve& memo = rung_solve_[j];
    if (memo.computed && memo.version == rung_version_[j]) return;
    obs::ScopedTimer timer(RungSolveHist());
    SolveRung(j, memo);
    memo.version = rung_version_[j];
    memo.computed = true;
  });

  // Phase 2 — final selection (line 19), identical to the historical
  // single-pass scan: ascending µ, strictly-greater diversity wins, so
  // the winner is bit-identical to the sequential path at any thread
  // count. Only the winner's elements are copied out of its candidates,
  // after the scan.
  size_t best = rungs;
  for (size_t j = 0; j < rungs; ++j) {
    const RungSolve& memo = rung_solve_[j];
    if (memo.picks.empty()) continue;
    if (best == rungs || memo.diversity > rung_solve_[best].diversity) {
      best = j;
    }
  }

  if (best == rungs) {
    return Status::Infeasible(
        "no guess µ yielded a size-k fair solution; stream too small for "
        "the constraint or d_min overestimated");
  }
  const RungSolve& winner = rung_solve_[best];
  Solution solution(dim_);
  solution.points.Reserve(winner.picks.size());
  for (const auto& [slot, position] : winner.picks) {
    solution.points.AddFrom(RungCandidate(best, slot), position);
  }
  solution.diversity = winner.diversity;
  solution.mu = ladder_.At(best);
  return solution;
}

size_t Sfdm2::StoredElements() const {
  std::set<int64_t> distinct;
  auto collect = [&distinct](const StreamingCandidate& c) {
    for (size_t i = 0; i < c.points().size(); ++i) {
      distinct.insert(c.points().IdAt(i));
    }
  };
  for (const auto& c : blind_) collect(c);
  for (const auto& c : specific_) collect(c);
  return distinct.size();
}

Status Sfdm2::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteU64(constraint_.quotas.size());
  for (const int quota : constraint_.quotas) writer.WriteI32(quota);
  internal::WriteStreamingHeader(writer, dim_, metric_, ladder_);
  writer.WriteBool(warm_start_);
  writer.WriteBool(greedy_augmentation_);
  writer.WriteI64(observed_);
  writer.WriteU64(state_version_);
  writer.WriteU64(ladder_.size());
  // Rung-major: S_µj, then S_µj,i for every group i (ascending).
  for (size_t j = 0; j < ladder_.size(); ++j) {
    SerializePointBuffer(writer, blind_[j].points());
    for (int i = 0; i < m_; ++i) {
      SerializePointBuffer(writer,
                           specific_[static_cast<size_t>(i) * ladder_.size() +
                                     j].points());
    }
  }
  return Status::Ok();
}

Result<Sfdm2> Sfdm2::Restore(SnapshotReader& reader) {
  if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
  FairnessConstraint constraint;
  const size_t num_groups = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (num_groups == 0 || num_groups > (1u << 20)) {
    reader.Fail("implausible group count " + std::to_string(num_groups));
    return reader.status();
  }
  for (size_t g = 0; g < num_groups; ++g) {
    constraint.quotas.push_back(reader.ReadI32());
  }
  const internal::StreamingHeader header =
      internal::ReadStreamingHeader(reader);
  const bool warm_start = reader.ReadBool();
  const bool greedy_augmentation = reader.ReadBool();
  const int64_t observed = reader.ReadI64();
  const uint64_t state_version = reader.ReadU64();
  const size_t rungs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  auto created = Create(constraint, header.dim, header.metric, header.options);
  if (!created.ok()) return created.status();
  Sfdm2 algo = std::move(created.value());
  if (rungs != algo.ladder_.size()) {
    reader.Fail("rung count " + std::to_string(rungs) +
                " does not match rebuilt ladder of " +
                std::to_string(algo.ladder_.size()));
    return reader.status();
  }
  for (size_t j = 0; j < rungs; ++j) {
    internal::RestoreCandidatePoints(reader, algo.blind_[j]);
    for (int i = 0; i < algo.m_; ++i) {
      internal::RestoreCandidatePoints(
          reader, algo.specific_[static_cast<size_t>(i) * rungs + j]);
    }
  }
  if (!reader.ok()) return reader.status();
  // The knobs are assigned directly (not via the setters): the snapshot's
  // state_version already accounts for any flips the original saw.
  algo.warm_start_ = warm_start;
  algo.greedy_augmentation_ = greedy_augmentation;
  algo.observed_ = observed;
  algo.state_version_ = state_version;
  return algo;
}

}  // namespace fdm
