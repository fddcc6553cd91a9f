#include "core/sfdm2.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_set>

#include "core/clustering.h"
#include "core/diversity.h"
#include "core/matroid.h"
#include "core/matroid_intersection.h"
#include "core/parallelism.h"
#include "core/snapshot_util.h"
#include "obs/metrics.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

// Group-specific capacity is k, not k_i (the Algorithm 3 deviation from
// SFDM1 that Lemma 4's Case 2 relies on).
Sfdm2::Sfdm2(FairnessConstraint constraint, size_t dim, MetricKind metric,
             GuessLadder ladder)
    : CandidateLadder(constraint.TotalK(), dim, metric, std::move(ladder),
                      std::vector<int>(constraint.quotas.size(),
                                       constraint.TotalK())),
      constraint_(std::move(constraint)),
      rung_solve_(rungs()) {}

Result<Sfdm2> Sfdm2::Create(const FairnessConstraint& constraint, size_t dim,
                            MetricKind metric,
                            const StreamingOptions& options) {
  if (Status s = constraint.Validate(); !s.ok()) return s;
  auto ladder = MakeLadder(dim, options);
  if (!ladder.ok()) return ladder.status();
  return Sfdm2(constraint, dim, metric, std::move(ladder.value()));
}

void Sfdm2::SolveRung(size_t j, RungSolve& memo) const {
  memo.picks.clear();
  const int k = this->k();
  const int m = num_groups();
  // U' membership for this guess: |S_µ| = k ∧ |S_µ,i| >= k_i ∀i (line 9).
  if (!blind(j).Full()) return;
  for (int i = 0; i < m; ++i) {
    if (static_cast<int>(specific(i, j).size()) <
        constraint_.quotas[static_cast<size_t>(i)]) {
      return;
    }
  }
  const double mu = ladder().At(j);

  // S_all = S_µ ∪ (∪_i S_µ,i), deduplicated by element id (line 12): the
  // first copy of an id wins, and `origin` records where it sits. The
  // blind candidate's elements come first so the initial partial solution
  // can be addressed by ground-set position.
  PointBuffer ground(dim(), static_cast<size_t>(k * (m + 1)));
  std::vector<std::pair<uint32_t, uint32_t>> origin;
  std::unordered_set<int64_t> seen;
  size_t blind_count = 0;
  for (size_t slot = 0; slot <= static_cast<size_t>(m); ++slot) {
    const CandidatePoints cand = RungCandidate(j, slot);
    for (size_t i = 0; i < cand.size(); ++i) {
      if (!seen.insert(cand.IdAt(i)).second) continue;
      cand.AppendTo(ground, i);
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
    std::vector<int> taken(static_cast<size_t>(m), 0);
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
      ThresholdClusters(ground, metric(), mu / static_cast<double>(m + 1));
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
  PointBuffer member_mirror(dim(), static_cast<size_t>(k));
  std::vector<int> mirrored;
  std::vector<double> query(dim());  // ground point `x`, gathered
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
        ground.GatherCoords(static_cast<size_t>(x), query), metric());
  };
  const std::vector<int> result = MaxCardinalityMatroidIntersection(
      m1, m2, initial,
      greedy_augmentation_ ? DistanceToSetFn(distance_to_set) : nullptr);
  if (static_cast<int>(result.size()) != k) return;

  PointBuffer selected(dim(), result.size());
  memo.picks.reserve(result.size());
  for (const int e : result) {
    selected.AddFrom(ground, static_cast<size_t>(e));
    memo.picks.push_back(origin[static_cast<size_t>(e)]);
  }
  FDM_DCHECK(SatisfiesQuotas(selected, constraint_.quotas));
  memo.diversity = MinPairwiseDistance(selected, metric());
}

Result<Solution> Sfdm2::Solve() const {
  const size_t rungs = this->rungs();

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
    if (memo.computed && memo.version == rung_inserts(j)) return;
    obs::ScopedTimer timer(RungSolveHist());
    SolveRung(j, memo);
    memo.version = rung_inserts(j);
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
  Solution solution(dim());
  solution.points.Reserve(winner.picks.size());
  for (const auto& [slot, position] : winner.picks) {
    RungCandidate(best, slot).AppendTo(solution.points, position);
  }
  solution.diversity = winner.diversity;
  solution.mu = ladder().At(best);
  return solution;
}

Status Sfdm2::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteU64(constraint_.quotas.size());
  for (const int quota : constraint_.quotas) writer.WriteI32(quota);
  WriteStreamingHeader(writer);
  writer.WriteBool(warm_start_);
  writer.WriteBool(greedy_augmentation_);
  WriteState(writer);
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
  const StreamingHeader header = ReadStreamingHeader(reader);
  const bool warm_start = reader.ReadBool();
  const bool greedy_augmentation = reader.ReadBool();
  if (!reader.ok()) return reader.status();
  auto algo = Create(constraint, header.dim, header.metric, header.options);
  if (!algo.ok()) return algo.status();
  // The knobs are assigned directly (not via the setters): the snapshot's
  // state_version already accounts for any flips the original saw.
  algo->warm_start_ = warm_start;
  algo->greedy_augmentation_ = greedy_augmentation;
  if (Status s = algo->ReadState(reader); !s.ok()) return s;
  return algo;
}

}  // namespace fdm
