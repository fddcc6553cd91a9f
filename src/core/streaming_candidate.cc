#include "core/streaming_candidate.h"

#include "core/diversity.h"
#include "core/parallelism.h"

namespace fdm {

std::optional<Solution> BestFullCandidate(
    size_t count,
    const std::function<const StreamingCandidate&(size_t)>& candidate, int k,
    const Metric& metric) {
  // -1 marks a candidate that is not full: a full one's diversity is a
  // distance or µ, never negative, so the scan's strict `>` skips the rest.
  std::vector<double> diversity(count, -1.0);
  Parallelism::Run(count, [&](size_t j) {
    const StreamingCandidate& c = candidate(j);
    if (!c.Full()) return;
    diversity[j] = k >= 2 ? MinPairwiseDistance(c.points(), metric) : c.mu();
  });
  const StreamingCandidate* best = nullptr;
  double best_div = -1.0;
  for (size_t j = 0; j < count; ++j) {
    if (diversity[j] > best_div) {
      best_div = diversity[j];
      best = &candidate(j);
    }
  }
  if (best == nullptr) return std::nullopt;
  Solution solution(best->points().dim());
  solution.points = best->points();
  solution.diversity = best_div;
  solution.mu = best->mu();
  return solution;
}

}  // namespace fdm
