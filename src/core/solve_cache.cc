#include "core/solve_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace fdm {

namespace {

// Process-wide mirrors of the per-cache latency histograms, so one METRICS
// scrape sees solve behavior across every session. Cached vs cold are
// separate series — their distributions differ by ~3 orders of magnitude
// and a merged histogram would bury the cold tail.
obs::Histogram& CachedSolveHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_solve_cached_ns", "latency of cache-hit SOLVE serves",
      /*slow_threshold_ns=*/10'000'000);
  return h;
}
obs::Histogram& ColdSolveHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_solve_cold_ns", "latency of cache-miss SOLVE computes",
      /*slow_threshold_ns=*/1'000'000'000);
  return h;
}
obs::Counter& HitCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_solve_hits_total", "SOLVEs served from cache");
  return c;
}
obs::Counter& MissCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_solve_misses_total", "SOLVEs that ran the solver");
  return c;
}

}  // namespace

std::optional<Result<Solution>> SolveCache::ServeHit(
    uint64_t version, std::string_view context, const Timer& since) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!cached_.has_value() || version_ != version) return std::nullopt;
  ++hits_;
  std::optional<Result<Solution>> result = cached_;
  const auto elapsed_ns = static_cast<uint64_t>(since.ElapsedNanos());
  hit_ns_.Record(elapsed_ns);
  HitCounter().Inc();
  CachedSolveHist().RecordWithContext(elapsed_ns, context, version);
  return result;
}

Result<Solution> SolveCache::GetOrCompute(
    uint64_t version, const std::function<Result<Solution>()>& solver,
    std::string_view context) {
  Timer timer;
  if (auto hit = ServeHit(version, context, timer)) return *std::move(hit);
  // Compute under a separate mutex so the entry mutex stays cheap: a
  // long post-processing run must not block `GetStats` (STATS on the
  // serving path) or a concurrent hit for the already-cached version.
  // Serializing computes is still required — the solver may mutate
  // incremental scratch (see Sfdm2) — and makes a second miss for the
  // same version wait and then be served the first caller's result by
  // the re-check below.
  std::lock_guard<std::mutex> compute_lock(compute_mu_);
  if (auto hit = ServeHit(version, context, timer)) return *std::move(hit);
  Result<Solution> result = solver();
  const uint64_t solve_ns = static_cast<uint64_t>(timer.ElapsedNanos());
  std::lock_guard<std::mutex> lock(mu_);
  miss_ns_.Record(solve_ns);
  ++misses_;
  version_ = version;
  cached_.emplace(result);
  MissCounter().Inc();
  ColdSolveHist().RecordWithContext(solve_ns, context, version);
  return result;
}

void SolveCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  cached_.reset();
  version_ = 0;
}

SolveCache::Stats SolveCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.cached_version = cached_.has_value() ? version_ : 0;
  stats.hit_ns = hit_ns_;
  stats.miss_ns = miss_ns_;
  return stats;
}

}  // namespace fdm
