#include "data/synthetic.h"

#include "util/check.h"
#include "util/rng.h"

namespace fdm {

Dataset MakeBlobs(const BlobsOptions& options) {
  FDM_CHECK(options.n > 0);
  FDM_CHECK(options.num_blobs > 0);
  FDM_CHECK(options.num_groups >= 1);
  Rng rng(options.seed);

  // Blob centers, uniform in the box.
  std::vector<double> centers(
      static_cast<size_t>(options.num_blobs) * options.dim);
  for (auto& c : centers) {
    c = rng.NextDouble(options.center_low, options.center_high);
  }

  Dataset ds("synthetic-blobs", options.dim, options.num_groups,
             MetricKind::kEuclidean);
  ds.Reserve(options.n);
  std::vector<double> point(options.dim);
  for (size_t i = 0; i < options.n; ++i) {
    const size_t blob = static_cast<size_t>(
        rng.NextBounded(static_cast<uint64_t>(options.num_blobs)));
    for (size_t d = 0; d < options.dim; ++d) {
      point[d] =
          centers[blob * options.dim + d] + options.stddev * rng.NextGaussian();
    }
    const int32_t group = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(options.num_groups)));
    ds.Add(point, group);
  }
  return ds;
}

std::vector<int32_t> SampleGroups(size_t n, const std::vector<double>& probs,
                                  uint64_t seed) {
  FDM_CHECK(!probs.empty());
  // Cumulative distribution; tolerate probs that sum to slightly != 1.
  std::vector<double> cdf(probs.size());
  double acc = 0.0;
  for (size_t g = 0; g < probs.size(); ++g) {
    FDM_CHECK(probs[g] >= 0.0);
    acc += probs[g];
    cdf[g] = acc;
  }
  FDM_CHECK(acc > 0.0);
  Rng rng(seed);
  std::vector<int32_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble() * acc;
    int32_t g = 0;
    while (g + 1 < static_cast<int32_t>(probs.size()) &&
           u > cdf[static_cast<size_t>(g)]) {
      ++g;
    }
    out[i] = g;
  }
  return out;
}

Dataset MakeUniformSquare(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds("uniform-square", 2, 1, MetricKind::kEuclidean);
  ds.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double p[2] = {rng.NextDouble(), rng.NextDouble()};
    ds.Add(p, 0);
  }
  return ds;
}

}  // namespace fdm
