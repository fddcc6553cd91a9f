#ifndef FDM_GEO_SIMD_KERNEL_TARGETS_H_
#define FDM_GEO_SIMD_KERNEL_TARGETS_H_

#include "geo/simd/kernel_types.h"

namespace fdm::simd::internal {

/// The per-target op tables, linked unconditionally; a target that is not
/// compiled for this architecture returns `nullptr` (its translation unit
/// shrinks to a stub), so the dispatcher never needs `#ifdef`s. Whether
/// the *CPU* can run a compiled-in target is a separate runtime question
/// answered in `kernel_dispatch.cc`.
const KernelOps& ScalarKernelOps();
const KernelOps* Avx2KernelOpsOrNull();    // x86-64 builds only
const KernelOps* Avx512KernelOpsOrNull();  // x86-64 builds only

/// The angular epilogue shared by every target: maps a block's 8 dot
/// products to angles through `fdm::internal::AngularFromDotAndNorms` and
/// returns their minimum in lane order. Defined once in kernels_scalar.cc
/// — compiled at the *baseline* ISA — and deliberately out-of-line: the
/// SIMD translation units must not include shared inline headers like
/// geo/metric.h, or the linker could keep their ISA-extended copies of
/// vague-linkage symbols for the whole program and crash scalar paths on
/// CPUs without the extension.
double AngularBlockMinFromDots(const double* dots, const double* norms8,
                               double q_norm);

/// Per-point variant of the angular epilogue for the offline `*_dists`
/// kernels: writes all 8 lane angles to `out8` instead of reducing to the
/// minimum. Same baseline-ISA placement rules as above.
void AngularBlockDistsFromDots(const double* dots, const double* norms8,
                               double q_norm, double* out8);

}  // namespace fdm::simd::internal

#endif  // FDM_GEO_SIMD_KERNEL_TARGETS_H_
