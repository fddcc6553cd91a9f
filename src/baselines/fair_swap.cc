#include "baselines/fair_swap.h"

#include <limits>
#include <string>
#include <vector>

#include "core/diversity.h"
#include "core/gmm.h"
#include "util/check.h"

namespace fdm {

Result<Solution> FairSwap(const Dataset& dataset,
                          const FairnessConstraint& constraint,
                          size_t start_index) {
  if (Status s = constraint.Validate(); !s.ok()) return s;
  if (constraint.num_groups() != 2) {
    return Status::Unsupported("FairSwap requires exactly 2 groups, got " +
                               std::to_string(constraint.num_groups()));
  }
  if (dataset.num_groups() != 2) {
    return Status::InvalidArgument("dataset does not have 2 groups");
  }
  const auto group_sizes = dataset.GroupSizes();
  if (Status s = constraint.ValidateAgainst(group_sizes); !s.ok()) return s;
  const int k = constraint.TotalK();
  if (static_cast<size_t>(k) > dataset.size()) {
    return Status::Infeasible("k exceeds dataset size");
  }
  const Metric metric = dataset.metric();

  // Group-blind GMM solution.
  std::vector<size_t> universe(dataset.size());
  for (size_t i = 0; i < universe.size(); ++i) universe[i] = i;
  std::vector<size_t> blind = GreedyGmm(
      dataset, universe, static_cast<size_t>(k), {},
      start_index % dataset.size());

  // Per-group counts; identify the under-filled group (if any).
  int counts[2] = {0, 0};
  for (const size_t row : blind) {
    ++counts[dataset.GroupOf(row)];
  }
  int under = -1;
  for (int g = 0; g < 2; ++g) {
    if (counts[g] < constraint.quotas[static_cast<size_t>(g)]) under = g;
  }

  if (under >= 0) {
    // Donor pool: GMM on the under-filled group only.
    const std::vector<size_t> group_rows =
        RowsOfGroup(dataset, static_cast<int32_t>(under));
    const std::vector<size_t> donors = GreedyGmm(
        dataset, group_rows,
        static_cast<size_t>(constraint.quotas[static_cast<size_t>(under)]),
        {}, start_index % group_rows.size());

    auto in_blind = [&blind](size_t row) {
      for (const size_t r : blind) {
        if (r == row) return true;
      }
      return false;
    };
    // The under-filled side of the solution, mirrored into the kernel
    // block layout: both swap loops scan only that side, so each scan is
    // one dispatched min-reduction over the same point set the scalar
    // filter walked (donors join on insertion; victims are never in it) —
    // the exact minimum of the same per-pair values, so every
    // argmax/argmin decision matches the scalar loops bit for bit.
    PointBuffer under_side(dataset.dim(), static_cast<size_t>(k) + 1);
    for (const size_t r : blind) {
      if (dataset.GroupOf(r) == under) under_side.Add(dataset.At(r));
    }
    auto distance_to_under_side = [&](size_t row) {
      return under_side.MinDistanceTo(dataset.Point(row), metric);
    };

    // Insert donors farthest from the under-filled side of the solution.
    int have = counts[under];
    while (have < constraint.quotas[static_cast<size_t>(under)]) {
      double best_distance = -1.0;
      size_t best_row = dataset.size();
      for (const size_t d : donors) {
        if (in_blind(d)) continue;
        const double dist = distance_to_under_side(d);
        if (dist > best_distance) {
          best_distance = dist;
          best_row = d;
        }
      }
      FDM_CHECK_MSG(best_row < dataset.size(),
                    "FairSwap: donor pool exhausted");
      blind.push_back(best_row);
      under_side.Add(dataset.At(best_row));
      ++have;
    }

    // Delete over-filled elements closest to the under-filled side.
    while (static_cast<int>(blind.size()) > k) {
      double best_distance = std::numeric_limits<double>::infinity();
      size_t victim_pos = blind.size();
      for (size_t pos = 0; pos < blind.size(); ++pos) {
        if (dataset.GroupOf(blind[pos]) == under) continue;
        const double dist = distance_to_under_side(blind[pos]);
        if (dist < best_distance) {
          best_distance = dist;
          victim_pos = pos;
        }
      }
      FDM_CHECK(victim_pos < blind.size());
      blind.erase(blind.begin() + static_cast<ptrdiff_t>(victim_pos));
    }
  }

  Solution solution = Solution::FromIndices(dataset, blind);
  FDM_DCHECK(SatisfiesQuotas(solution.points, constraint.quotas));
  return solution;
}

}  // namespace fdm
