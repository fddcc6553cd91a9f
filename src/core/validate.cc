#include "core/validate.h"

#include <cmath>
#include <string>
#include <unordered_set>

#include "core/diversity.h"

namespace fdm {

Status ValidateSolution(const Dataset& dataset, const Solution& solution,
                        const FairnessConstraint* constraint) {
  const PointBuffer& points = solution.points;
  if (points.dim() != dataset.dim()) {
    return Status::InvalidArgument(
        "solution dimension " + std::to_string(points.dim()) +
        " != dataset dimension " + std::to_string(dataset.dim()));
  }

  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < points.size(); ++i) {
    const int64_t id = points.IdAt(i);
    if (id < 0 || id >= static_cast<int64_t>(dataset.size())) {
      return Status::InvalidArgument("selected id " + std::to_string(id) +
                                     " outside dataset");
    }
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("id " + std::to_string(id) +
                                     " selected twice");
    }
    const size_t row = static_cast<size_t>(id);
    if (points.GroupAt(i) != dataset.GroupOf(row)) {
      return Status::Internal("group mismatch for id " + std::to_string(id));
    }
    const auto original = dataset.Point(row);
    for (size_t d = 0; d < dataset.dim(); ++d) {
      if (points.CoordAt(i, d) != original[d]) {
        return Status::Internal("coordinate mismatch for id " +
                                std::to_string(id) + " at dimension " +
                                std::to_string(d));
      }
    }
  }

  const double recomputed = MinPairwiseDistance(points, dataset.metric());
  const bool both_infinite =
      std::isinf(recomputed) && std::isinf(solution.diversity);
  if (!both_infinite &&
      std::fabs(recomputed - solution.diversity) >
          1e-9 * std::max(1.0, std::fabs(recomputed))) {
    return Status::Internal(
        "reported diversity " + std::to_string(solution.diversity) +
        " != recomputed " + std::to_string(recomputed));
  }

  if (constraint != nullptr) {
    if (constraint->num_groups() != dataset.num_groups()) {
      return Status::InvalidArgument("constraint/dataset group mismatch");
    }
    if (!SatisfiesQuotas(points, constraint->quotas)) {
      return Status::Infeasible("selection does not meet the quotas");
    }
  }
  return Status::Ok();
}

}  // namespace fdm
