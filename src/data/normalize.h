#ifndef FDM_DATA_NORMALIZE_H_
#define FDM_DATA_NORMALIZE_H_

#include <cstddef>
#include <vector>

namespace fdm {

/// Per-column mean/standard-deviation summary of a row-major matrix.
struct ColumnStats {
  std::vector<double> mean;
  std::vector<double> stddev;  // population stddev; 1.0 for constant columns
};

/// Computes per-column statistics of `features` (`n` rows, `dim` columns,
/// row-major).
ColumnStats ComputeColumnStats(const std::vector<double>& features, size_t n,
                               size_t dim);

/// In-place z-score normalization (zero mean, unit standard deviation per
/// column). Constant columns are centered only. This mirrors the paper's
/// preprocessing of Adult ("normalize each of them to have zero mean and
/// unit standard deviation") and Census ("normalized numeric attributes").
void ZScoreNormalize(std::vector<double>& features, size_t n, size_t dim);

}  // namespace fdm

#endif  // FDM_DATA_NORMALIZE_H_
