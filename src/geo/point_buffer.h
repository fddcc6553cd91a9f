#ifndef FDM_GEO_POINT_BUFFER_H_
#define FDM_GEO_POINT_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "geo/metric.h"
#include "geo/simd/kernel_dispatch.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace fdm {

/// A single element as seen by a streaming algorithm: an opaque id (its
/// position in the dataset), its demographic group, and a *borrowed* view of
/// its coordinates. Streaming algorithms must copy the coordinates if they
/// retain the element — the span is only valid during the `Observe` call,
/// which is what makes the memory accounting of the algorithms honest.
struct StreamPoint {
  int64_t id = -1;
  int32_t group = 0;
  std::span<const double> coords;
};

/// Bounded, owning, structure-of-arrays point store.
///
/// This is the storage behind every streaming candidate `S_µ`. Four
/// arrays grow together — the coordinates, the norm cache, ids and groups
/// — and they are the four sections of one 64-byte-aligned heap slab, in
/// that order, so a buffer is one allocation. Each point's coordinates are
/// stored once, in the kernel layout: blocks of 8 points, dimension-major
/// within a block (coordinate `d` of point `i` at
/// `coords[(i/8)·dim·8 + d·8 + i%8]`), with the padding lanes of the final
/// block *replicating the last real point*. A block row (8 doubles) is 64
/// bytes, so the aligned slab base aligns every coordinate and norm row.
/// The one-to-many distance kernels (`geo/simd/`) scan this
/// layout with full-width vector loads and no tail masking anywhere — the
/// replicated padding can tie with a real lane in a min reduction but
/// never win it.
///
/// A point's coordinates are therefore strided, never a contiguous span:
/// `CoordAt` reads one of them, `GatherCoords` copies a point into
/// caller-owned scratch (the contiguous query the kernels and `Metric`
/// take), `AddFrom` copies a point buffer to buffer, lane to lane, and the
/// snapshot writer gathers them point-major (`geo/point_buffer_io.h`).
///
/// Growth: the constructor reserves nothing, so a buffer nothing has
/// entered holds no heap. When a point opens a new block, the slab grows
/// to twice the current block count, but never past the blocks that hold
/// `capacity`, and its id and group sections never past `capacity`
/// entries — a full buffer holds exactly what an up-front reservation
/// would, and a 3-point one a single block. With `capacity` 0, or once it
/// is exceeded, growth doubles without a cap. `Reserve` sizes a buffer
/// that is about to be filled to a known size in one go. A block row a
/// point opens starts zero-filled. A copy holds exactly the used blocks
/// and rows of its source, bit for bit; a moved-from buffer holds no heap
/// and still accepts points.
///
/// Each stored point's squared L2 norm is cached on insertion (one extra
/// double per point, padded and replicated like the coordinates), so the
/// angular one-to-many kernel never recomputes stored-point norms during a
/// scan. The cache is maintained eagerly for every metric — filling it
/// lazily on the first angular scan would turn the const scan paths into
/// writers and race under the serving layer's shared-lock concurrent
/// queries; the eager cost is one O(dim) pass per insertion, dwarfed by the
/// admission scan that accompanies it.
class PointBuffer {
 public:
  /// `dim` is the point dimension; `capacity` is the number of points the
  /// buffer is meant to hold (0 when unknown). It caps the growth schedule
  /// (see the class comment) and is not a limit: more points still fit.
  PointBuffer(size_t dim, size_t capacity) : dim_(dim), capacity_(capacity) {
    FDM_CHECK(dim > 0);
  }

  PointBuffer(const PointBuffer& other)
      : dim_(other.dim_), capacity_(other.capacity_) {
    if (other.size_ > 0) {
      Reallocate(other.size_, simd::PointBlockCount(other.size_), other);
    }
  }

  PointBuffer(PointBuffer&& other) noexcept
      : dim_(other.dim_), capacity_(other.capacity_) {
    Swap(other);
  }

  PointBuffer& operator=(const PointBuffer& other) {
    if (this != &other) {
      PointBuffer copy(other);
      Swap(copy);
      dim_ = other.dim_;
      capacity_ = other.capacity_;
    }
    return *this;
  }

  PointBuffer& operator=(PointBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      dim_ = other.dim_;
      capacity_ = other.capacity_;
      Swap(other);
    }
    return *this;
  }

  ~PointBuffer() { Release(); }

  /// Reserves room for `n` points in all four sections (never shrinks).
  void Reserve(size_t n) {
    const size_t rows = std::max(rows_, n);
    const size_t blocks = std::max(blocks_, simd::PointBlockCount(n));
    if (rows != rows_ || blocks != blocks_) Reallocate(rows, blocks, *this);
  }

  /// Heap bytes of the slab: its block and norm rows and its id and group
  /// slots, exactly (no rounding).
  size_t MemoryBytes() const { return SlabBytes(rows_, blocks_); }

  /// Copies `p` into the buffer. The new point is now the last point, so
  /// its lane is replicated into every padding lane after it (see the
  /// class comment).
  void Add(const StreamPoint& p) {
    AddDeferPadding(p);
    RepadTail();
  }

  /// Appends point `i` of `src` (same dimension; may be this buffer) lane
  /// to lane, with its cached norm copied bit for bit: the point `Add` of
  /// its gathered coordinates would store.
  void AddFrom(const PointBuffer& src, size_t i) {
    FDM_DCHECK(src.dim_ == dim_ && i < src.size());
    AppendSlot(src.IdAt(i), src.GroupAt(i));
    CopyLane(src, i, size_ - 1);
    NormSection()[size_ - 1] = src.NormSection()[i];
    RepadTail();
  }

  /// Batched-append fast path (the fused admission+insert of
  /// `StreamingCandidate::TryAddBatch`): identical to `Add` except the
  /// padding lanes after the new point are NOT rewritten — only the
  /// point's own lane is stored, so a run of accepted points writes each
  /// coordinate once instead of re-replicating the tail per insertion.
  /// The block layout is INVALID for kernel scans until `SealPadding()`
  /// runs; callers must seal before any `MinDistanceTo`/`AllAtLeast`/
  /// `RawDistancesToAll`/`MinRawDistanceToMany` call touches the buffer.
  /// (A block row a point opens starts zero-filled, and a zero padding lane
  /// *can* win a min reduction — unlike the replicated-last-point padding
  /// the kernels are specified against.) The per-point accessors
  /// (`CoordAt`, `GatherCoords`, ids, groups, norms) stay valid throughout.
  void AddDeferPadding(const StreamPoint& p) {
    FDM_DCHECK(p.coords.size() == dim_);
    AppendSlot(p.id, p.group);
    double* lane = CoordSection() + Lane(size_ - 1);
    for (size_t d = 0; d < dim_; ++d) {
      lane[d * simd::kPointBlockLanes] = p.coords[d];
    }
    NormSection()[size_ - 1] = internal::SquaredNorm(p.coords.data(), dim_);
  }

  /// Restores the replicate-last-point padding invariant after a run of
  /// `AddDeferPadding` calls. Idempotent; O(dim) on the final block only.
  void SealPadding() { RepadTail(); }

  /// Removes the point at `index` (order is not preserved: the last point
  /// moves into the hole — O(dim), including re-padding the block layout).
  void RemoveSwap(size_t index) {
    FDM_DCHECK(index < size());
    const size_t last = size_ - 1;
    if (index != last) {
      IdSection()[index] = IdSection()[last];
      GroupSection()[index] = GroupSection()[last];
      NormSection()[index] = NormSection()[last];
      CopyLane(*this, last, index);
    }
    size_ = last;
    RepadTail();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t dim() const { return dim_; }

  /// Coordinate `d` of the point at `i`, read from its block lane.
  double CoordAt(size_t i, size_t d) const {
    FDM_DCHECK(i < size() && d < dim_);
    return CoordSection()[Lane(i) + d * simd::kPointBlockLanes];
  }

  /// Copies the point at `i` into the caller's scratch `out` (at least
  /// `dim()` entries) and returns `out[0, dim())`: the contiguous form a
  /// query takes.
  std::span<const double> GatherCoords(size_t i, std::span<double> out) const {
    FDM_DCHECK(out.size() >= dim_);
    for (size_t d = 0; d < dim_; ++d) out[d] = CoordAt(i, d);
    return out.first(dim_);
  }

  int64_t IdAt(size_t i) const {
    FDM_DCHECK(i < size());
    return IdSection()[i];
  }
  int32_t GroupAt(size_t i) const {
    FDM_DCHECK(i < size());
    return GroupSection()[i];
  }
  /// Cached squared L2 norm of the point at `i` (bit-identical to
  /// `internal::SquaredNorm` over its coordinates).
  double SquaredNormAt(size_t i) const {
    FDM_DCHECK(i < size());
    return NormSection()[i];
  }

  /// Whole-buffer views of the id and group arrays (serialization).
  std::span<const int64_t> ids() const { return {IdSection(), size_}; }
  std::span<const int32_t> groups() const { return {GroupSection(), size_}; }

  /// `d(x, S)` — distance from `x` to its nearest neighbour in the buffer;
  /// +infinity when empty (so "add if `d(x,S) >= µ`" admits the first point).
  ///
  /// One-to-many kernel over the block layout through the runtime-dispatched
  /// SIMD table (`geo/simd/kernel_dispatch.h`): the scan runs in the
  /// metric's raw space (squared distances for Euclidean — no `sqrt` per
  /// stored point) and normalizes once at the end.
  double MinDistanceTo(std::span<const double> x, const Metric& metric) const {
    const double raw = MinRawDistanceTo(x, metric);
    return raw == std::numeric_limits<double>::infinity()
               ? raw
               : metric.FinishDistance(raw);
  }

  /// As `MinDistanceTo`, but stops early once a distance below `threshold`
  /// is seen (the streaming insert only needs to know whether
  /// `d(x,S) >= µ`, not the exact value). The comparison happens in raw
  /// space against the prepared threshold — for Euclidean the hot path
  /// compares squared distances against `µ²` and never calls `sqrt`.
  bool AllAtLeast(std::span<const double> x, const Metric& metric,
                  double threshold) const {
    const double prepared = metric.PrepareThreshold(threshold);
    return RawScan(x, metric, /*stop_below=*/prepared) >= prepared;
  }

  /// Raw-space variant of `MinDistanceTo` (see `Metric::RawDistance`);
  /// +infinity when empty. Callers comparing against a true-distance
  /// threshold must map it with `PrepareThreshold` first.
  double MinRawDistanceTo(std::span<const double> x,
                          const Metric& metric) const {
    return RawScan(x, metric,
                   /*stop_below=*/-std::numeric_limits<double>::infinity());
  }

  /// Batch form of `MinRawDistanceTo`: raw min distances from `Q` query
  /// points to the whole buffer in one pass over the stored blocks, with a
  /// per-query raw-space early-exit threshold (`stop_below[q]`, already
  /// mapped with `PrepareThreshold`; pass -infinity for exact minima).
  ///
  /// `out[q]` receives the exact minimum unless the query's running
  /// minimum crossed `stop_below[q]` mid-scan — then the query stopped
  /// scanning and `out[q]` holds some value `< stop_below[q]`, so the
  /// threshold decision `out[q] >= stop_below[q]` always matches a full
  /// `AllAtLeast` scan. The batched admission path (`TryAddBatch`) is the
  /// caller; amortizing the stored-block loads across the batch is what
  /// the kernel subsystem buys on `ObserveBatch`.
  void MinRawDistanceToMany(std::span<const double* const> queries,
                            const Metric& metric,
                            std::span<const double> stop_below,
                            std::span<double> out) const {
    FDM_DCHECK(queries.size() == out.size());
    FDM_DCHECK(queries.size() == stop_below.size());
    if (queries.empty()) return;
    if (empty()) {
      for (double& o : out) o = std::numeric_limits<double>::infinity();
      return;
    }
#ifndef FDM_NO_METRICS
    // Per-shape kernel invocation counters, one uncontended bump per scan
    // (~1-2ns against a multi-microsecond scan). The cell reference is
    // resolved once per thread and cached — no registry lookup on the hot
    // path. Explicitly compiled out under FDM_NO_METRICS: these sit on
    // the admission hot path the micro_obs overhead gate measures.
    static thread_local std::atomic<uint64_t>& scans =
        obs::MetricsRegistry::Global()
            .GetCounter("fdm_kernel_many_scans_total",
                        "many-to-many admission scans (MinRawDistanceToMany)")
            .ThreadLocalCell();
    obs::BumpCell(scans);
#endif
    const simd::KernelOps& ops = simd::ActiveKernelOps();
    const simd::PointBlockView view = BlockView();
    // Worklist scratch (and angular query norms), reused across calls;
    // thread-local because candidates replay batches on pool threads.
    thread_local std::vector<uint32_t> scratch;
    thread_local std::vector<double> query_norms;
    if (scratch.size() < queries.size()) scratch.resize(queries.size());
    simd::ManyQueryArgs args;
    args.queries = queries.data();
    args.nq = queries.size();
    args.stop_below = stop_below.data();
    args.out_min_raw = out.data();
    args.scratch = scratch.data();
    switch (metric.kind()) {
      case MetricKind::kEuclidean:
        ops.euclidean_min_many(view, args);
        return;
      case MetricKind::kManhattan:
        ops.manhattan_min_many(view, args);
        return;
      case MetricKind::kAngular:
        query_norms.resize(queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          query_norms[q] = internal::SquaredNorm(queries[q], dim_);
        }
        args.query_norms = query_norms.data();
        ops.angular_min_many(view, args);
        return;
    }
    FDM_CHECK_MSG(false, "unreachable metric kind");
  }

  /// Offline per-point kernel: the raw distance from `x` to *every* stored
  /// point, through the dispatched `*_dists` ops. `out` is resized to the
  /// padded lane count (`PointBlockCount(size()) * 8`); entries `[0,
  /// size())` are the raw distances in storage order — bit-identical to
  /// `metric.RawDistance` from `x` to point `i` on every target — and the
  /// remaining entries are padding-lane values the caller must ignore.
  /// This is the row primitive of the offline Solve paths (GMM relax
  /// scans, clustering rows, pairwise sums), which need every distance
  /// rather than the minimum; there is no early exit.
  void RawDistancesToAll(std::span<const double> x, const Metric& metric,
                         std::vector<double>& out) const {
    out.resize(simd::PointBlockCount(size()) * simd::kPointBlockLanes);
    if (empty()) return;
#ifndef FDM_NO_METRICS
    static thread_local std::atomic<uint64_t>& scans =
        obs::MetricsRegistry::Global()
            .GetCounter("fdm_kernel_dists_scans_total",
                        "one-to-all full-distance scans (RawDistancesToAll)")
            .ThreadLocalCell();
    obs::BumpCell(scans);
#endif
    const simd::KernelOps& ops = simd::ActiveKernelOps();
    const simd::PointBlockView view = BlockView();
    switch (metric.kind()) {
      case MetricKind::kEuclidean:
        ops.euclidean_dists(view, x.data(), out.data());
        return;
      case MetricKind::kManhattan:
        ops.manhattan_dists(view, x.data(), out.data());
        return;
      case MetricKind::kAngular:
        ops.angular_dists(view, x.data(),
                          internal::SquaredNorm(x.data(), dim_), out.data());
        return;
    }
    FDM_CHECK_MSG(false, "unreachable metric kind");
  }

  /// True iff the buffer holds an element with this id (O(n) scan; buffers
  /// are k-sized so this is cheap and only used in post-processing).
  bool ContainsId(int64_t id) const {
    for (const int64_t have : ids()) {
      if (have == id) return true;
    }
    return false;
  }

  /// Drops every point and keeps the slab.
  void Clear() { size_ = 0; }

 private:
  /// The kernel-facing view of the block layout (requires `size() >= 1`).
  simd::PointBlockView BlockView() const {
    return simd::PointBlockView{CoordSection(), NormSection(), size_, dim_};
  }

  /// The one-to-many scan behind `AllAtLeast`/`MinRawDistanceTo`, routed
  /// through the runtime-dispatched kernel table. Returns the minimum raw
  /// distance seen but may give up as soon as the running minimum drops
  /// below `stop_below` (pass -inf for an exact full scan). Every dispatch
  /// target performs the scalar `Metric::RawDistance` arithmetic per lane
  /// in the same order, so results are bit-identical to a point-at-a-time
  /// scan and across targets (the kernel equivalence tests enforce both,
  /// for all three metrics and every target reachable on the machine).
  double RawScan(std::span<const double> x, const Metric& metric,
                 double stop_below) const {
    if (empty()) return std::numeric_limits<double>::infinity();
#ifndef FDM_NO_METRICS
    static thread_local std::atomic<uint64_t>& scans =
        obs::MetricsRegistry::Global()
            .GetCounter("fdm_kernel_min_scans_total",
                        "one-to-many min-distance scans (RawScan)")
            .ThreadLocalCell();
    obs::BumpCell(scans);
#endif
    const simd::KernelOps& ops = simd::ActiveKernelOps();
    const simd::PointBlockView view = BlockView();
    switch (metric.kind()) {
      case MetricKind::kEuclidean:
        return ops.euclidean_min(view, x.data(), stop_below);
      case MetricKind::kManhattan:
        return ops.manhattan_min(view, x.data(), stop_below);
      case MetricKind::kAngular:
        // Query norm once per scan; stored norms from the cache.
        return ops.angular_min(view, x.data(),
                               internal::SquaredNorm(x.data(), dim_),
                               stop_below);
    }
    FDM_CHECK_MSG(false, "unreachable metric kind");
    return 0.0;
  }

  /// Index in the coordinate section of coordinate 0 of the point at `i`;
  /// coordinate `d` is `d·kPointBlockLanes` further on.
  size_t Lane(size_t i) const {
    return (i / simd::kPointBlockLanes) * simd::PointBlockStride(dim_) +
           i % simd::kPointBlockLanes;
  }

  /// Copies the coordinates of `src`'s point `i` into this buffer's `j`.
  void CopyLane(const PointBuffer& src, size_t i, size_t j) {
    double* lane = CoordSection() + Lane(j);
    for (size_t d = 0; d < dim_; ++d) {
      lane[d * simd::kPointBlockLanes] = src.CoordAt(i, d);
    }
  }

  /// Appends a new last point's id and group, growing the slab (and
  /// opening a zero-filled block) as the growth schedule says. Its lane and
  /// norm are the caller's to fill; the padding after it is stale until
  /// `RepadTail`.
  void AppendSlot(int64_t id, int32_t group) {
    const size_t i = size_;
    const bool opens_block = i % simd::kPointBlockLanes == 0;
    if (i == rows_ || (opens_block && i / simd::kPointBlockLanes == blocks_)) {
      Grow(i);
    }
    IdSection()[i] = id;
    GroupSection()[i] = group;
    size_ = i + 1;
    if (opens_block) {
      const size_t stride = simd::PointBlockStride(dim_);
      std::fill_n(CoordSection() + i / simd::kPointBlockLanes * stride, stride,
                  0.0);
      std::fill_n(NormSection() + i, simd::kPointBlockLanes, 0.0);
    }
  }

  /// The growth schedule (class comment), for point `i`, the first that
  /// does not fit. A point that opens a block doubles the block count; one
  /// inside the last block (only in a copy, whose sections hold exactly its
  /// points, or past `capacity`) fills the ids and groups to that block.
  void Grow(size_t i) {
    const size_t used = simd::PointBlockCount(i);
    const size_t blocks = i % simd::kPointBlockLanes == 0
                              ? std::max<size_t>(1, 2 * used)
                              : used;
    size_t rows = blocks * simd::kPointBlockLanes;
    if (i < capacity_) rows = std::min(rows, capacity_);
    Reserve(rows);
  }

  /// Restores the replicate-last-point invariant of the final block's
  /// padding lanes (coordinates and norms) after an append or a removal.
  void RepadTail() {
    if (size_ == 0) return;
    const size_t last = size_ - 1;
    const size_t lane = last % simd::kPointBlockLanes;
    double* row = CoordSection() + Lane(last) - lane;
    for (size_t d = 0; d < dim_; ++d, row += simd::kPointBlockLanes) {
      for (size_t l = lane + 1; l < simd::kPointBlockLanes; ++l) {
        row[l] = row[lane];
      }
    }
    double* norms = NormSection() + (last - lane);
    for (size_t l = lane + 1; l < simd::kPointBlockLanes; ++l) {
      norms[l] = norms[lane];
    }
  }

  /// Bytes of a slab with `rows` id and group slots and `blocks` blocks.
  size_t SlabBytes(size_t rows, size_t blocks) const {
    return blocks * (simd::PointBlockStride(dim_) + simd::kPointBlockLanes) *
               sizeof(double) +
           rows * (sizeof(int64_t) + sizeof(int32_t));
  }

  /// The slab's sections (class comment), placed by `rows_` and `blocks_`.
  /// The slab comes from `operator new`, which implicitly creates the
  /// arrays of doubles, `int64_t` and `int32_t` the sections hold. Whether
  /// a const buffer may write them is the public interface's call.
  double* CoordSection() const { return reinterpret_cast<double*>(slab_); }
  double* NormSection() const {
    return CoordSection() + blocks_ * simd::PointBlockStride(dim_);
  }
  int64_t* IdSection() const {
    return reinterpret_cast<int64_t*>(NormSection() +
                                      blocks_ * simd::kPointBlockLanes);
  }
  int32_t* GroupSection() const {
    return reinterpret_cast<int32_t*>(IdSection() + rows_);
  }

  /// Moves this buffer into a slab of `rows` slots and `blocks` blocks
  /// holding `from`'s points (`from` may be this buffer): its used blocks,
  /// padding included, and its ids, groups and norms, bit for bit.
  void Reallocate(size_t rows, size_t blocks, const PointBuffer& from) {
    PointBuffer grown(dim_, capacity_);
    grown.slab_ = static_cast<std::byte*>(::operator new(
        SlabBytes(rows, blocks), std::align_val_t{kSlabAlignment}));
    grown.rows_ = rows;
    grown.blocks_ = blocks;
    grown.size_ = from.size_;
    const size_t used = simd::PointBlockCount(from.size_);
    std::copy_n(from.CoordSection(), used * simd::PointBlockStride(dim_),
                grown.CoordSection());
    std::copy_n(from.NormSection(), used * simd::kPointBlockLanes,
                grown.NormSection());
    std::copy_n(from.IdSection(), from.size_, grown.IdSection());
    std::copy_n(from.GroupSection(), from.size_, grown.GroupSection());
    Swap(grown);
  }

  /// Exchanges the slabs and point counts (not `dim_` or `capacity_`).
  void Swap(PointBuffer& other) noexcept {
    std::swap(slab_, other.slab_);
    std::swap(size_, other.size_);
    std::swap(rows_, other.rows_);
    std::swap(blocks_, other.blocks_);
  }

  void Release() noexcept {
    if (slab_ != nullptr) {
      ::operator delete(slab_, std::align_val_t{kSlabAlignment});
    }
    slab_ = nullptr;
    size_ = rows_ = blocks_ = 0;
  }

  /// One cache line, one 8-lane row of doubles: the block row stride.
  static constexpr size_t kSlabAlignment = 64;

  size_t dim_;
  size_t capacity_;  // growth cap (class comment); 0 = uncapped
  std::byte* slab_ = nullptr;
  size_t size_ = 0;    // points held
  size_t rows_ = 0;    // id and group slots in the slab
  size_t blocks_ = 0;  // kernel blocks in the slab
};

static_assert(sizeof(PointBuffer) <= 48);

}  // namespace fdm

#endif  // FDM_GEO_POINT_BUFFER_H_
