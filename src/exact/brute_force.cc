#include "exact/brute_force.h"

#include <limits>

#include "core/diversity.h"
#include "util/check.h"

namespace fdm {
namespace {

/// Branch-and-bound over k-combinations in lexicographic order.
/// `min_so_far` is div of the current partial selection; max-min diversity
/// only decreases as elements join, so partials at or below the incumbent
/// are pruned.
class Enumerator {
 public:
  Enumerator(const Dataset& dataset, const FairnessConstraint* constraint,
             int k)
      : dataset_(dataset), constraint_(constraint), k_(k),
        metric_(dataset.metric()),
        mirror_(dataset.dim(), static_cast<size_t>(k)) {
    if (constraint_ != nullptr) {
      remaining_quota_ = constraint_->quotas;
    }
  }

  ExactSolution Run() {
    current_.clear();
    mirror_.Clear();
    Recurse(0, std::numeric_limits<double>::infinity());
    return best_;
  }

 private:
  void Recurse(size_t next, double min_so_far) {
    if (static_cast<int>(current_.size()) == k_) {
      if (min_so_far > best_.diversity) {
        best_.diversity = min_so_far;
        best_.indices = current_;
      }
      return;
    }
    const size_t needed = static_cast<size_t>(k_) - current_.size();
    if (next + needed > dataset_.size()) return;
    if (min_so_far <= best_.diversity) return;  // cannot improve

    for (size_t i = next; i + needed <= dataset_.size(); ++i) {
      const int32_t g = dataset_.GroupOf(i);
      if (constraint_ != nullptr &&
          remaining_quota_[static_cast<size_t>(g)] == 0) {
        continue;
      }
      // div of current ∪ {i}: one dispatched min-reduction over the
      // mirrored partial selection — the exact minimum of the same
      // per-pair values the scalar member loop produced, so pruning
      // decisions are bit-identical.
      double with_i = min_so_far;
      const double d = mirror_.MinDistanceTo(dataset_.Point(i), metric_);
      if (d < with_i) with_i = d;
      if (with_i <= best_.diversity) continue;
      current_.push_back(i);
      mirror_.Add(dataset_.At(i));
      if (constraint_ != nullptr) --remaining_quota_[static_cast<size_t>(g)];
      Recurse(i + 1, with_i);
      if (constraint_ != nullptr) ++remaining_quota_[static_cast<size_t>(g)];
      current_.pop_back();
      mirror_.RemoveSwap(mirror_.size() - 1);
    }
  }

  const Dataset& dataset_;
  const FairnessConstraint* constraint_;
  int k_;
  Metric metric_;
  std::vector<size_t> current_;
  std::vector<int> remaining_quota_;
  /// `current_` mirrored into the kernel block layout (push/pop in step).
  PointBuffer mirror_;
  ExactSolution best_;
};

}  // namespace

ExactSolution ExactDiversityMaximization(const Dataset& dataset, int k) {
  FDM_CHECK(k >= 1);
  Enumerator e(dataset, nullptr, k);
  return e.Run();
}

ExactSolution ExactFairDiversityMaximization(const Dataset& dataset,
                                             const FairnessConstraint& c) {
  FDM_CHECK(c.Validate().ok());
  FDM_CHECK(c.num_groups() == dataset.num_groups());
  Enumerator e(dataset, &c, c.TotalK());
  return e.Run();
}

int ExactMaxCommonIndependentSetSize(const Matroid& m1, const Matroid& m2) {
  const int n = m1.GroundSize();
  FDM_CHECK(n == m2.GroundSize());
  FDM_CHECK_MSG(n <= 20, "exact matroid intersection limited to n <= 20");
  int best = 0;
  std::vector<int> members;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int size = __builtin_popcount(mask);
    if (size <= best) continue;
    members.clear();
    for (int e = 0; e < n; ++e) {
      if (mask & (1u << e)) members.push_back(e);
    }
    if (m1.IsIndependent(members) && m2.IsIndependent(members)) {
      best = size;
    }
  }
  return best;
}

}  // namespace fdm
