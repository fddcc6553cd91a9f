#ifndef FDM_CORE_PARALLELISM_H_
#define FDM_CORE_PARALLELISM_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fdm {

/// The process-wide width of every fan-out: batched ingest
/// (`ReplayBatchRungMajor`, the sharded driver's `ObserveBatch`), every
/// sink's cold `Solve()`, and `SessionManager::SnapshotAll`. `1` =
/// sequential (the default), `0` = all hardware threads, `n > 1` = at most
/// `n` threads. A deployment setting like the kernel dispatch target — set
/// once at startup (`fdm_serve --threads`), never part of a sink's
/// configuration or durable state. Ingest and `Solve()` output are
/// bit-identical at every width, so changing it never advances a
/// `StateVersion`.
///
/// Every fan-out in the process runs on ONE machine-sized pool, capped per
/// call at the width (caller included), so fan-outs add at most
/// `ThreadPool::DefaultThreads() - 1` threads to the process no matter how
/// many sessions ingest, solve or snapshot at once. The pool takes
/// concurrent jobs and each caller drains its own (util/thread_pool.h), so
/// one fan-out never queues behind another's fork-join: concurrent cold
/// solves on different sessions proceed side by side, and a `SnapshotAll`
/// task blocked on a session lock cannot stall the ingest that holds it.
///
/// `Run` is callable from logically-const `Solve()` paths; the shared pool
/// is internally synchronized. Tasks must touch disjoint state, and each
/// task needing kernel scratch builds its own `KernelWorkspace`
/// (per-worker instances — the mirrors are mutable and would race if
/// shared).
class Parallelism {
 public:
  /// Sets the width for every later `Run` and publishes it as the
  /// `fdm_parallel_threads` info series. A negative `threads` is
  /// `InvalidArgument` and leaves the width unchanged.
  static Status SetThreads(int threads) {
    if (threads < 0) {
      return Status::InvalidArgument("threads must be >= 0, got " +
                                     std::to_string(threads));
    }
    Width().store(threads);
    obs::MetricsRegistry::Global().SetInfo("fdm_parallel_threads",
                                           std::to_string(threads));
    return Status::Ok();
  }

  /// The current width (see the class comment for the encoding).
  static int Threads() { return Width().load(); }

  /// Runs `fn(0) … fn(n-1)` — on the shared pool when the width asks for
  /// parallelism, inline otherwise. `fn` must not throw. A nested call (a
  /// task that itself calls `Run`, e.g. a shard's rung fan-out inside the
  /// sharded driver's shard fan-out) runs inline on its task, so no
  /// fan-out ever runs wider than the width.
  static void Run(size_t n, const std::function<void(size_t)>& fn) {
    const int threads = Threads();
    if (threads == 1 || n <= 1 || InTask()) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter& runs = registry.GetCounter(
        "fdm_parallel_runs_total",
        "rung/shard/session fan-outs dispatched to the shared pool");
    static obs::Gauge& depth = registry.GetGauge(
        "fdm_parallel_queue_depth",
        "fan-out tasks outstanding on the shared pool");
    runs.Inc();
    depth.Add(static_cast<double>(n));
    SharedPool().ParallelFor(
        n,
        [&fn](size_t i) {
          InTask() = true;
          fn(i);
          InTask() = false;
        },
        static_cast<size_t>(threads));
    depth.Add(-static_cast<double>(n));
  }

 private:
  /// The process-wide pool every fan-out shares, sized to the hardware on
  /// first use and leaked so fan-outs reached from static sinks or
  /// detached serving threads stay safe at exit.
  static ThreadPool& SharedPool() {
    static ThreadPool* pool = new ThreadPool(0);
    return *pool;
  }

  static std::atomic<int>& Width() {
    static std::atomic<int> width{1};
    return width;
  }

  static bool& InTask() {
    static thread_local bool in_task = false;
    return in_task;
  }
};

}  // namespace fdm

#endif  // FDM_CORE_PARALLELISM_H_
