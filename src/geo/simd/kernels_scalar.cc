// The scalar reference target of the kernel dispatch table.
//
// This is the portable baseline every SIMD target is validated against:
// each lane of a block accumulates its point's raw distance over the
// dimensions in exactly the order of the scalar `Metric` kernels
// (`geo/metric.h`), and the block minimum is the exact minimum of the 8
// lane values. The dimension loop is outermost so the 8-lane rows are read
// contiguously — the compiler is free to autovectorize the independent
// per-lane accumulators (that cannot change results; lanes never mix), but
// no vector instruction set beyond the build baseline is assumed here.
//
// This translation unit is also the only kernel TU allowed to include
// shared inline headers (geo/metric.h): it is compiled at the baseline
// ISA, so the vague-linkage copies of those inline functions the linker
// may keep from here run everywhere. The ISA-extended TUs route their
// angular epilogue through `AngularBlockMinFromDots` below instead.

#include <cmath>
#include <limits>

#include "geo/metric.h"
#include "geo/simd/kernel_impl.h"
#include "geo/simd/kernel_targets.h"

namespace fdm::simd::internal {
namespace {

constexpr size_t kLanes = kPointBlockLanes;

struct ScalarTarget {
  static double EuclideanBlockMin(const double* block, size_t dim,
                                  const double* q) {
    double acc[kLanes] = {};
    for (size_t d = 0; d < dim; ++d) {
      const double qd = q[d];
      const double* row = block + d * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        const double diff = qd - row[l];
        acc[l] += diff * diff;
      }
    }
    double m = acc[0];
    for (size_t l = 1; l < kLanes; ++l) {
      if (acc[l] < m) m = acc[l];
    }
    return m;
  }

  static double ManhattanBlockMin(const double* block, size_t dim,
                                  const double* q) {
    double acc[kLanes] = {};
    for (size_t d = 0; d < dim; ++d) {
      const double qd = q[d];
      const double* row = block + d * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        acc[l] += std::fabs(qd - row[l]);
      }
    }
    double m = acc[0];
    for (size_t l = 1; l < kLanes; ++l) {
      if (acc[l] < m) m = acc[l];
    }
    return m;
  }

  static void AngularDotBlock(const double* block, size_t dim,
                              const double* q, double dots[kLanes]) {
    for (size_t l = 0; l < kLanes; ++l) dots[l] = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double qd = q[d];
      const double* row = block + d * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        dots[l] += qd * row[l];
      }
    }
  }

  static void EuclideanBlockDists(const double* block, size_t dim,
                                  const double* q, double out[kLanes]) {
    double acc[kLanes] = {};
    for (size_t d = 0; d < dim; ++d) {
      const double qd = q[d];
      const double* row = block + d * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        const double diff = qd - row[l];
        acc[l] += diff * diff;
      }
    }
    for (size_t l = 0; l < kLanes; ++l) out[l] = acc[l];
  }

  static void ManhattanBlockDists(const double* block, size_t dim,
                                  const double* q, double out[kLanes]) {
    double acc[kLanes] = {};
    for (size_t d = 0; d < dim; ++d) {
      const double qd = q[d];
      const double* row = block + d * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        acc[l] += std::fabs(qd - row[l]);
      }
    }
    for (size_t l = 0; l < kLanes; ++l) out[l] = acc[l];
  }
};

}  // namespace

double AngularBlockMinFromDots(const double* dots, const double* norms8,
                               double q_norm) {
  // The epilogue (sqrt/acos) is scalar on every target — per lane it is
  // the shared `AngularFromDotAndNorms`, so cached-norm results match the
  // scalar Metric bit for bit.
  double m = std::numeric_limits<double>::infinity();
  for (size_t l = 0; l < kLanes; ++l) {
    const double ang =
        fdm::internal::AngularFromDotAndNorms(dots[l], q_norm, norms8[l]);
    if (ang < m) m = ang;
  }
  return m;
}

void AngularBlockDistsFromDots(const double* dots, const double* norms8,
                               double q_norm, double* out8) {
  for (size_t l = 0; l < kLanes; ++l) {
    out8[l] =
        fdm::internal::AngularFromDotAndNorms(dots[l], q_norm, norms8[l]);
  }
}

const KernelOps& ScalarKernelOps() {
  static const KernelOps ops = KernelEntryPoints<ScalarTarget>::Ops("scalar");
  return ops;
}

}  // namespace fdm::simd::internal
