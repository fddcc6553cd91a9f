#ifndef FDM_DATA_SYNTHETIC_H_
#define FDM_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace fdm {

/// Options for the paper's synthetic workload (Section V-A): ten
/// 2-dimensional Gaussian isotropic blobs with random centers in
/// `[-10, 10]^2` and identity covariance; points are assigned to the `m`
/// groups uniformly at random; Euclidean distance.
struct BlobsOptions {
  size_t n = 1000;
  size_t dim = 2;
  int num_blobs = 10;
  double center_low = -10.0;
  double center_high = 10.0;
  double stddev = 1.0;
  int32_t num_groups = 2;
  uint64_t seed = 1;
};

/// Generates the synthetic blob dataset used by Figs. 10 and 11.
Dataset MakeBlobs(const BlobsOptions& options);

/// Uniform-random group proportions helper: draws a group id for each point
/// i.i.d. from `probs` (must sum to ~1). Returns per-point assignments.
std::vector<int32_t> SampleGroups(size_t n, const std::vector<double>& probs,
                                  uint64_t seed);

/// Uniform random points in the unit square (Fig. 1 illustration).
Dataset MakeUniformSquare(size_t n, uint64_t seed);

}  // namespace fdm

#endif  // FDM_DATA_SYNTHETIC_H_
