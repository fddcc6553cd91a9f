#include "baselines/fair_gmm.h"

#include <limits>
#include <vector>

#include "core/diversity.h"
#include "core/gmm.h"
#include "util/check.h"

namespace fdm {
namespace {

/// Number of ways to choose `r` of `n`, saturating at 2^63-1.
uint64_t Choose(uint64_t n, uint64_t r) {
  if (r > n) return 0;
  r = std::min(r, n - r);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= r; ++i) {
    const uint64_t num = n - r + i;
    if (result > std::numeric_limits<uint64_t>::max() / num) {
      return std::numeric_limits<uint64_t>::max();
    }
    result = result * num / i;
  }
  return result;
}

/// Depth-first enumeration over groups, choosing combinations within each
/// group's coreset; prunes partial selections whose running min pairwise
/// distance cannot beat the incumbent.
class Enumerator {
 public:
  Enumerator(const Dataset& dataset, const FairnessConstraint& constraint,
             const std::vector<std::vector<size_t>>& coresets)
      : dataset_(dataset), constraint_(constraint), coresets_(coresets),
        metric_(dataset.metric()),
        mirror_(dataset.dim(), static_cast<size_t>(constraint.TotalK())) {}

  void Run() { RecurseGroup(0, std::numeric_limits<double>::infinity()); }

  const std::vector<size_t>& best_indices() const { return best_indices_; }
  double best_diversity() const { return best_diversity_; }

 private:
  void RecurseGroup(int group, double min_so_far) {
    if (group == constraint_.num_groups()) {
      if (min_so_far > best_diversity_) {
        best_diversity_ = min_so_far;
        best_indices_ = current_;
      }
      return;
    }
    RecurseChoose(group, 0, constraint_.quotas[static_cast<size_t>(group)],
                  min_so_far);
  }

  void RecurseChoose(int group, size_t next, int remaining,
                     double min_so_far) {
    if (min_so_far <= best_diversity_) return;  // cannot improve
    if (remaining == 0) {
      RecurseGroup(group + 1, min_so_far);
      return;
    }
    const auto& coreset = coresets_[static_cast<size_t>(group)];
    if (next + static_cast<size_t>(remaining) > coreset.size()) return;
    for (size_t pos = next;
         pos + static_cast<size_t>(remaining) <= coreset.size(); ++pos) {
      const size_t row = coreset[pos];
      // One dispatched min-reduction over the mirrored partial selection
      // replaces the scalar member loop: the kernel minimum is the exact
      // minimum of the same per-pair values (squared diffs are
      // sign-insensitive), so the pruning decisions are bit-identical.
      double with_row = min_so_far;
      const double d = mirror_.MinDistanceTo(dataset_.Point(row), metric_);
      if (d < with_row) with_row = d;
      if (with_row <= best_diversity_) continue;
      current_.push_back(row);
      mirror_.Add(dataset_.At(row));
      RecurseChoose(group, pos + 1, remaining - 1, with_row);
      current_.pop_back();
      mirror_.RemoveSwap(mirror_.size() - 1);
    }
  }

  const Dataset& dataset_;
  const FairnessConstraint& constraint_;
  const std::vector<std::vector<size_t>>& coresets_;
  Metric metric_;
  std::vector<size_t> current_;
  std::vector<size_t> best_indices_;
  /// `current_` mirrored into the kernel block layout (push/pop in step).
  PointBuffer mirror_;
  double best_diversity_ = -1.0;
};

}  // namespace

Result<Solution> FairGmm(const Dataset& dataset,
                         const FairnessConstraint& constraint,
                         const FairGmmOptions& options) {
  if (Status s = constraint.Validate(); !s.ok()) return s;
  if (constraint.num_groups() != dataset.num_groups()) {
    return Status::InvalidArgument("constraint/dataset group mismatch");
  }
  const auto group_sizes = dataset.GroupSizes();
  if (Status s = constraint.ValidateAgainst(group_sizes); !s.ok()) return s;
  const int m = constraint.num_groups();
  const int k = constraint.TotalK();

  // Applicability guard: the enumeration count is Π_i C(|coreset_i|, k_i).
  uint64_t combinations = 1;
  for (int g = 0; g < m; ++g) {
    const uint64_t coreset_size =
        std::min<uint64_t>(static_cast<uint64_t>(k),
                           group_sizes[static_cast<size_t>(g)]);
    const uint64_t c = Choose(
        coreset_size,
        static_cast<uint64_t>(constraint.quotas[static_cast<size_t>(g)]));
    if (c == 0) return Status::Infeasible("group smaller than its quota");
    if (combinations > options.max_combinations / std::max<uint64_t>(c, 1)) {
      return Status::Unsupported(
          "FairGMM enumeration too large (O(m^k)); the paper limits it to "
          "k <= 10 and m <= 5");
    }
    combinations *= c;
  }

  std::vector<std::vector<size_t>> coresets(static_cast<size_t>(m));
  for (int g = 0; g < m; ++g) {
    const std::vector<size_t> rows = RowsOfGroup(dataset, g);
    coresets[static_cast<size_t>(g)] =
        GreedyGmm(dataset, rows, static_cast<size_t>(k), {},
                  options.start_index % rows.size());
  }

  Enumerator enumerator(dataset, constraint, coresets);
  enumerator.Run();
  if (enumerator.best_indices().empty()) {
    return Status::Infeasible("FairGMM found no fair combination");
  }
  Solution solution = Solution::FromIndices(dataset, enumerator.best_indices());
  FDM_DCHECK(SatisfiesQuotas(solution.points, constraint.quotas));
  return solution;
}

}  // namespace fdm
