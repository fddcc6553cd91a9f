#ifndef FDM_GEO_SIMD_KERNEL_TYPES_H_
#define FDM_GEO_SIMD_KERNEL_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fdm::simd {

/// Lane width of the point-block (AoSoA) coordinate layout: points are
/// stored in blocks of 8, and within a block dimension-major — the 8
/// doubles of one dimension row are contiguous and 64-byte aligned (one
/// cache line, one AVX-512 register, two AVX2 registers). The one-to-many
/// kernels vectorize *across the 8 points of a block*, so each lane
/// accumulates its point's distance over the dimensions in exactly the
/// scalar `Metric` order — which is what makes every target bit-identical
/// to the scalar reference without constraining how a target reduces
/// lanes to the block minimum (min is order-invariant for the non-NaN,
/// non-negative raw distances the metrics produce).
inline constexpr size_t kPointBlockLanes = 8;

/// Blocks needed to hold `n` points.
inline constexpr size_t PointBlockCount(size_t n) {
  return (n + kPointBlockLanes - 1) / kPointBlockLanes;
}

/// Doubles per block for points of dimension `dim` (the block stride).
inline constexpr size_t PointBlockStride(size_t dim) {
  return dim * kPointBlockLanes;
}

/// A borrowed view of a `PointBuffer`'s kernel-facing storage.
///
/// `blocks` is the padded AoSoA coordinate array: coordinate `d` of point
/// `i` lives at `blocks[(i / 8) * dim * 8 + d * 8 + i % 8]`. Padding lanes
/// of the final block *replicate the last real point* (coordinates and
/// norm), so a kernel scans every block as a full block — no tail masking,
/// no out-of-bounds loads, and the padding lanes can never win a min
/// reduction on their own (they tie with a real lane bit-for-bit).
///
/// `norms` holds one cached squared L2 norm per point (linear index,
/// padding replicated like the coordinates); only the angular kernels read
/// it. `n >= 1` is a precondition of every kernel call — the empty-buffer
/// +infinity case is handled by the caller.
struct PointBlockView {
  const double* blocks = nullptr;
  const double* norms = nullptr;
  size_t n = 0;
  size_t dim = 0;
};

/// Arguments of the one-to-many *batch* kernels (`Q` query points against
/// one stored block view, with per-query early-exit thresholds).
///
/// Contract: `out_min_raw[q]` receives the exact minimum raw distance from
/// query `q` to the `n` stored points, unless the per-query running
/// minimum drops below `stop_below[q]` mid-scan — then the query stops
/// participating and keeps its current value (which is `< stop_below[q]`,
/// so threshold decisions are exact either way; pass `-inf` thresholds for
/// exact minima). All targets process blocks in the same order with the
/// same per-block exit bookkeeping, so outputs are bit-identical across
/// targets. `scratch` must hold `nq` entries (the active-query worklist).
struct ManyQueryArgs {
  const double* const* queries = nullptr;  // nq pointers, dim doubles each
  const double* query_norms = nullptr;     // nq norms (angular only)
  size_t nq = 0;
  const double* stop_below = nullptr;  // nq prepared raw-space thresholds
  double* out_min_raw = nullptr;       // nq results
  uint32_t* scratch = nullptr;         // nq entries of worklist scratch
};

/// One dispatch target: the function-pointer table the runtime dispatcher
/// resolves once per process (see `kernel_dispatch.h`). `stop_below` is a
/// raw-space threshold (`Metric::PrepareThreshold`); the scan may return
/// early with any value `< stop_below` once the running minimum crosses
/// it, and returns the exact minimum otherwise. Angular kernels take the
/// query's squared norm so it is computed once per scan.
struct KernelOps {
  std::string_view name;

  double (*euclidean_min)(const PointBlockView& pts, const double* q,
                          double stop_below) = nullptr;
  double (*manhattan_min)(const PointBlockView& pts, const double* q,
                          double stop_below) = nullptr;
  double (*angular_min)(const PointBlockView& pts, const double* q,
                        double q_norm, double stop_below) = nullptr;

  void (*euclidean_min_many)(const PointBlockView& pts,
                             const ManyQueryArgs& args) = nullptr;
  void (*manhattan_min_many)(const PointBlockView& pts,
                             const ManyQueryArgs& args) = nullptr;
  void (*angular_min_many)(const PointBlockView& pts,
                           const ManyQueryArgs& args) = nullptr;

  // Offline per-point kernels: the raw distance from one query to *every*
  // stored point, in lane order — the primitive behind the offline Solve
  // paths (GMM relax scans, clustering rows, max-sum accumulation), which
  // need every distance rather than the minimum. `out_raw` must hold
  // `PointBlockCount(pts.n) * kPointBlockLanes` doubles; every block is
  // written in full (padding lanes receive the replicated-last-point
  // distance) and callers read the first `pts.n` entries. No early exit,
  // no alignment requirement on `out_raw` (targets use unaligned stores).
  // Per-lane arithmetic is the scalar `Metric` order, so entry `i` is
  // bit-identical to `metric.RawDistance(q, point_i)` on every target.
  void (*euclidean_dists)(const PointBlockView& pts, const double* q,
                          double* out_raw) = nullptr;
  void (*manhattan_dists)(const PointBlockView& pts, const double* q,
                          double* out_raw) = nullptr;
  void (*angular_dists)(const PointBlockView& pts, const double* q,
                        double q_norm, double* out_raw) = nullptr;
};

}  // namespace fdm::simd

#endif  // FDM_GEO_SIMD_KERNEL_TYPES_H_
