#ifndef FDM_CORE_SOLVE_POOL_H_
#define FDM_CORE_SOLVE_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fdm {

/// The process-wide width of every sink's query path: `1` = sequential
/// (the default), `0` = all hardware threads, `n > 1` = at most `n`
/// threads. A deployment setting like the kernel dispatch target — set
/// once at startup (tools/fdm_serve.cc), never part of a sink's
/// configuration or durable state. `Solve()` output is bit-identical at
/// every width, so changing it never advances a `StateVersion`.
///
/// Unlike `BatchParallelism` (one lazily-created pool per sink family),
/// every parallel solve in the process runs on ONE shared machine-sized
/// pool, capped per call at the width. That sharing is the
/// oversubscription guard the serving plane needs: the pool is fork-join
/// (one `ParallelFor` at a time), so concurrent cold solves on different
/// sessions queue for the pool instead of multiplying threads — total
/// solve parallelism never exceeds the machine no matter how many
/// sessions go cold at once.
///
/// `Run` is callable from logically-const `Solve()` paths; the shared pool
/// is internally synchronized. Tasks must touch disjoint state, and each
/// task needing kernel scratch builds its own `KernelWorkspace`
/// (per-worker instances — the mirrors are mutable and would race if
/// shared).
class SolveParallelism {
 public:
  /// Sets the width for every later `Run` and publishes it as the
  /// `fdm_solve_threads` info series. A negative `threads` is
  /// `InvalidArgument` and leaves the width unchanged.
  static Status SetThreads(int threads) {
    if (threads < 0) {
      return Status::InvalidArgument("solve threads must be >= 0, got " +
                                     std::to_string(threads));
    }
    Width().store(threads);
    obs::MetricsRegistry::Global().SetInfo("fdm_solve_threads",
                                           std::to_string(threads));
    return Status::Ok();
  }

  /// The current width (see the class comment for the encoding).
  static int Threads() { return Width().load(); }

  /// Runs `fn(0) … fn(n-1)` — on the shared pool when the width asks for
  /// parallelism, inline otherwise. `fn` must not throw. A nested call (a
  /// task that itself calls `Run`, e.g. a shard's rung fan-out inside the
  /// sharded driver's shard fan-out) runs inline instead of deadlocking
  /// on the pool's fork-join mutex.
  static void Run(size_t n, const std::function<void(size_t)>& fn) {
    const int threads = Threads();
    if (threads == 1 || n <= 1 || InSolveTask()) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter& runs = registry.GetCounter(
        "fdm_solve_parallel_runs_total",
        "rung/shard fan-outs dispatched to the shared solve pool");
    static obs::Gauge& depth = registry.GetGauge(
        "fdm_solve_pool_queue_depth",
        "solve tasks outstanding on the shared solve pool");
    runs.Inc();
    depth.Add(static_cast<double>(n));
    SharedPool().ParallelFor(
        n,
        [&fn](size_t i) {
          InSolveTask() = true;
          fn(i);
          InSolveTask() = false;
        },
        static_cast<size_t>(threads));
    depth.Add(-static_cast<double>(n));
  }

 private:
  /// The process-wide pool every parallel solve shares, sized to the
  /// hardware on first use and leaked so solves reached from static
  /// sinks or detached serving threads stay safe at exit.
  static ThreadPool& SharedPool() {
    static ThreadPool* pool = new ThreadPool(0);
    return *pool;
  }

  static std::atomic<int>& Width() {
    static std::atomic<int> width{1};
    return width;
  }

  static bool& InSolveTask() {
    static thread_local bool in_task = false;
    return in_task;
  }
};

}  // namespace fdm

#endif  // FDM_CORE_SOLVE_POOL_H_
