#include "data/normalize.h"

#include <cmath>

#include "util/check.h"

namespace fdm {

ColumnStats ComputeColumnStats(const std::vector<double>& features, size_t n,
                               size_t dim) {
  FDM_CHECK(features.size() == n * dim);
  ColumnStats stats;
  stats.mean.assign(dim, 0.0);
  stats.stddev.assign(dim, 1.0);
  if (n == 0) return stats;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      stats.mean[d] += features[i * dim + d];
    }
  }
  for (size_t d = 0; d < dim; ++d) stats.mean[d] /= static_cast<double>(n);
  std::vector<double> var(dim, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      const double delta = features[i * dim + d] - stats.mean[d];
      var[d] += delta * delta;
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    const double v = var[d] / static_cast<double>(n);
    stats.stddev[d] = v > 0.0 ? std::sqrt(v) : 1.0;
  }
  return stats;
}

void ZScoreNormalize(std::vector<double>& features, size_t n, size_t dim) {
  const ColumnStats stats = ComputeColumnStats(features, n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      features[i * dim + d] =
          (features[i * dim + d] - stats.mean[d]) / stats.stddev[d];
    }
  }
}

}  // namespace fdm
