#include "core/sfdm1.h"

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/diversity.h"
#include "core/parallelism.h"
#include "core/snapshot_util.h"
#include "obs/metrics.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fdm {

Sfdm1::Sfdm1(FairnessConstraint constraint, size_t dim, MetricKind metric,
             GuessLadder ladder)
    : CandidateLadder(constraint.TotalK(), dim, metric, std::move(ladder),
                      constraint.quotas),
      constraint_(std::move(constraint)) {}

Result<Sfdm1> Sfdm1::Create(const FairnessConstraint& constraint, size_t dim,
                            MetricKind metric,
                            const StreamingOptions& options) {
  if (Status s = constraint.Validate(); !s.ok()) return s;
  if (constraint.num_groups() != 2) {
    return Status::Unsupported(
        "SFDM1 requires exactly 2 groups, got " +
        std::to_string(constraint.num_groups()) + "; use SFDM2");
  }
  auto ladder = MakeLadder(dim, options);
  if (!ladder.ok()) return ladder.status();
  return Sfdm1(constraint, dim, metric, std::move(ladder.value()));
}

PointBuffer Sfdm1::BalancedCandidate(size_t j) const {
  // Work on a copy of the group-blind candidate so Solve() stays const and
  // repeatable mid-stream.
  PointBuffer working = Points(blind(j)).Copy();

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
  const CandidatePoints donors = Points(specific(under, j));

  // The under-filled side of `working`, mirrored into the kernel block
  // layout: both balancing loops scan only that side, so each scan becomes
  // one dispatched min-reduction instead of |working| scalar Metric calls.
  // The mirror holds the same point set as the scalar filter (donors join
  // it on insertion; victims are never in it), and `MinDistanceTo` is the
  // exact minimum of the same per-pair values (finishing the raw minimum
  // commutes with the monotone sqrt), so every argmax/argmin decision is
  // bit-identical to the scalar loops.
  PointBuffer under_side(dim(), static_cast<size_t>(k()) + 1);
  for (size_t i = 0; i < working.size(); ++i) {
    if (working.GroupAt(i) == under) under_side.AddFrom(working, i);
  }
  std::vector<double> query(dim());  // a donor or victim, gathered

  // Algorithm 2, lines 12–14: insert the donor farthest from the selected
  // elements of the under-filled group, repeatedly.
  while (static_cast<int>(under_side.size()) < quota_under) {
    double best_distance = -1.0;
    size_t best_donor = donors.size();
    for (size_t d = 0; d < donors.size(); ++d) {
      if (working.ContainsId(donors.IdAt(d))) continue;
      // d(x, S_µ ∩ X_iu): +infinity when the group is empty in S_µ.
      const double dist =
          under_side.MinDistanceTo(donors.GatherCoords(d, query), metric());
      if (dist > best_distance) {
        best_distance = dist;
        best_donor = d;
      }
    }
    FDM_CHECK_MSG(best_donor < donors.size(),
                  "SFDM1 balance: donor pool exhausted (U' membership "
                  "should prevent this)");
    donors.AppendTo(working, best_donor);
    donors.AppendTo(under_side, best_donor);
  }

  // Algorithm 2, lines 15–17: delete the other-group element closest to the
  // (augmented) under-filled side until |S_µ| = k.
  while (static_cast<int>(working.size()) > k()) {
    double best_distance = std::numeric_limits<double>::infinity();
    size_t victim = working.size();
    for (size_t i = 0; i < working.size(); ++i) {
      if (working.GroupAt(i) == under) continue;
      const double dist =
          under_side.MinDistanceTo(working.GatherCoords(i, query), metric());
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
  // Phase 1 — balance every eligible rung, fanned out over the width:
  // task j reads only rung j's candidates and writes only slot j
  // (`BalancedCandidate` works on copies, so concurrent tasks share nothing
  // mutable). Phase 2 — the best-rung selection — stays a sequential
  // ascending-µ scan with strict `>`, so the winner (and hence the output)
  // is bit-identical to the sequential path at any thread count.
  std::vector<std::optional<PointBuffer>> balanced(rungs());
  std::vector<double> diversity(rungs(), -1.0);
  Parallelism::Run(rungs(), [&](size_t j) {
    // U' = {µ : |S_µ| = k ∧ |S_µ,i| = k_i for both i} (line 9).
    if (!blind(j).Full() || !specific(0, j).Full() ||
        !specific(1, j).Full()) {
      return;
    }
    obs::ScopedTimer timer(RungSolveHist());
    balanced[j] = BalancedCandidate(j);
    FDM_DCHECK(SatisfiesQuotas(*balanced[j], constraint_.quotas));
    diversity[j] = MinPairwiseDistance(*balanced[j], metric());
  });
  Solution best(dim());
  best.diversity = -1.0;
  bool found = false;
  for (size_t j = 0; j < rungs(); ++j) {
    if (!balanced[j].has_value()) continue;
    if (diversity[j] > best.diversity) {
      best.points = std::move(*balanced[j]);
      best.diversity = diversity[j];
      best.mu = ladder().At(j);
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

Status Sfdm1::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteU64(constraint_.quotas.size());
  for (const int quota : constraint_.quotas) writer.WriteI32(quota);
  WriteStreamingHeader(writer);
  WriteState(writer);
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
  const StreamingHeader header = ReadStreamingHeader(reader);
  if (!reader.ok()) return reader.status();
  auto algo = Create(constraint, header.dim, header.metric, header.options);
  if (!algo.ok()) return algo.status();
  if (Status s = algo->ReadState(reader); !s.ok()) return s;
  return algo;
}

}  // namespace fdm
