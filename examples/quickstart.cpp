// Quickstart: select a fair, maximally diverse subset from a data stream.
//
// Demonstrates the three steps of the public API:
//   1. define the fairness constraint (quotas per group),
//   2. feed the stream one element at a time through `Observe`,
//   3. call `Solve` for the fair max-min-diverse subset.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/diversity.h"
#include "core/sfdm2.h"
#include "data/synthetic.h"

int main() {
  // A toy population: 2-D points in ten Gaussian blobs, three demographic
  // groups assigned uniformly at random.
  fdm::BlobsOptions data_options;
  data_options.n = 5000;
  data_options.num_groups = 3;
  data_options.seed = 42;
  const fdm::Dataset dataset = fdm::MakeBlobs(data_options);

  // Step 1 — the fairness constraint: a summary of k = 9 elements, exactly
  // three from each group (equal representation).
  const auto constraint = fdm::EqualRepresentation(/*k=*/9, /*m=*/3);
  if (!constraint.ok()) {
    std::fprintf(stderr, "constraint: %s\n",
                 constraint.status().ToString().c_str());
    return 1;
  }

  // Streaming algorithms need (estimates of) the smallest and largest
  // pairwise distances to build their guess ladder.
  const fdm::DistanceBounds bounds =
      fdm::EstimateDistanceBounds(dataset, /*sample_size=*/500, /*seed=*/1);

  fdm::StreamingOptions streaming;
  streaming.epsilon = 0.1;  // approximation knob: smaller = better, slower
  streaming.d_min = bounds.min;
  streaming.d_max = bounds.max;

  auto algorithm = fdm::Sfdm2::Create(constraint.value(), dataset.dim(),
                                      dataset.metric_kind(), streaming);
  if (!algorithm.ok()) {
    std::fprintf(stderr, "create: %s\n",
                 algorithm.status().ToString().c_str());
    return 1;
  }

  // Step 2 — one pass over the stream. `At(i)` packages a row as a
  // StreamPoint; a real application would construct StreamPoints from its
  // own feed.
  for (size_t i = 0; i < dataset.size(); ++i) {
    algorithm->Observe(dataset.At(i));
  }

  // Step 3 — solve. The returned elements are owned copies: valid even
  // though the stream is gone.
  const auto solution = algorithm->Solve();
  if (!solution.ok()) {
    std::fprintf(stderr, "solve: %s\n", solution.status().ToString().c_str());
    return 1;
  }

  std::printf("selected %zu elements, diversity (min pairwise distance) = "
              "%.4f\n",
              solution->points.size(), solution->diversity);
  std::printf("stored only %zu of %zu stream elements (%.2f%%)\n\n",
              algorithm->StoredElements(), dataset.size(),
              100.0 * static_cast<double>(algorithm->StoredElements()) /
                  static_cast<double>(dataset.size()));
  std::printf("%-8s %-6s %-10s %-10s\n", "id", "group", "x", "y");
  for (size_t i = 0; i < solution->points.size(); ++i) {
    std::printf("%-8lld %-6d %-10.4f %-10.4f\n",
                static_cast<long long>(solution->points.IdAt(i)),
                solution->points.GroupAt(i), solution->points.CoordAt(i, 0),
                solution->points.CoordAt(i, 1));
  }
  return 0;
}
