#ifndef FDM_CORE_SOLVE_CACHE_H_
#define FDM_CORE_SOLVE_CACHE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>

#include "core/solution.h"
#include "obs/histogram.h"
#include "util/status.h"
#include "util/timer.h"

namespace fdm {

/// Memoizes the last `Solve()` outcome of a sink, keyed by its
/// `StreamSink::StateVersion()`.
///
/// The streaming algorithms split into a cheap one-pass ingest and an
/// expensive post-processing `Solve()` (GMM clustering + fair
/// augmentation). Most `Observe` calls reject the element and leave sink
/// state — and therefore the `Solve()` answer — untouched, so a serving
/// layer that re-runs the post-processing per query wastes almost all of
/// its query budget. `SolveCache` exploits the `StateVersion` contract:
/// equal versions guarantee bit-identical `Solve()` output, so a cached
/// result can be served verbatim (failed solves included — an `Infeasible`
/// stream stays infeasible until state changes).
///
/// Thread-safety: all methods are safe to call concurrently. `GetOrCompute`
/// serializes the *compute* path under a dedicated compute mutex, which is
/// what lets `Sfdm2::Solve()` keep mutable incremental post-processing
/// scratch without its own locking — at most one solver callback runs at a
/// time per cache. The entry mutex is held only for the cheap
/// lookup/store/stats sections, so a long-running compute never blocks
/// `GetStats` or a concurrent hit on the already-cached version. Callers
/// must still guarantee the sink is not mutated while a solver callback
/// reads it (the service layer does this with a reader–writer session
/// lock: queries hold it shared, ingest exclusive).
class SolveCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// State version of the currently cached result (0 if none yet).
    uint64_t cached_version = 0;
    /// Per-cache latency of cache-hit serves (nanoseconds, lock wait and
    /// result copy included) and of cache-miss computes. Kept as plain
    /// histograms under the entry mutex — they survive `FDM_NO_METRICS`,
    /// so STATS p50/p99 work in both configurations; the process-wide
    /// `fdm_solve_cached_ns`/`fdm_solve_cold_ns` registry histograms
    /// mirror them when metrics are enabled.
    obs::HistogramSnapshot hit_ns;
    obs::HistogramSnapshot miss_ns;
  };

  SolveCache() = default;
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Returns the cached result if it was computed at exactly `version`;
  /// otherwise runs `solver`, caches its outcome under `version`, and
  /// returns it. The caller must derive `version` from the same sink the
  /// solver reads, with the sink unmutated in between. `context` tags the
  /// slow-op journal entry for a slow compute (a session name or similar);
  /// it is not stored past the call.
  Result<Solution> GetOrCompute(
      uint64_t version, const std::function<Result<Solution>()>& solver,
      std::string_view context = {});

  /// Drops the cached result (e.g. after swapping the underlying sink for
  /// one with an unrelated version history).
  void Invalidate();

  /// The hit `GetOrCompute(version, ...)` would serve, counted as one;
  /// nullopt on a miss, with nothing counted or computed. An event loop
  /// answers a cached SOLVE through this and hands a miss elsewhere.
  std::optional<Result<Solution>> Lookup(uint64_t version,
                                         std::string_view context = {}) {
    return ServeHit(version, context, Timer());
  }

  Stats GetStats() const;

 private:
  /// `Lookup`, timing the hit from `since`: a hit that waited for
  /// `compute_mu_` records that wait in the hit series.
  std::optional<Result<Solution>> ServeHit(uint64_t version,
                                           std::string_view context,
                                           const Timer& since);

  mutable std::mutex mu_;  // guards all fields below; held briefly
  std::mutex compute_mu_;  // serializes solver callbacks; never nested in mu_
  std::optional<Result<Solution>> cached_;
  uint64_t version_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  obs::HistogramSnapshot hit_ns_;
  obs::HistogramSnapshot miss_ns_;
};

}  // namespace fdm

#endif  // FDM_CORE_SOLVE_CACHE_H_
