#ifndef FDM_UTIL_THREAD_POOL_H_
#define FDM_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fdm {

/// A small reusable thread pool that runs concurrent fork-join jobs.
///
/// Each `ParallelFor` call is its own job, with its own claim index,
/// worker-slot budget and count of joined workers. Idle workers join any
/// job that still has a free slot and an unclaimed task. The caller drains
/// its own job and then waits only for the workers that joined it, so no
/// caller ever waits on another caller's work, and every caller can finish
/// its job alone. That is what lets every fan-out in the process share one
/// pool (core/parallelism.h): a task that blocks on a lock held by another
/// caller cannot stall that caller's job, and a task that itself calls
/// `ParallelFor` simply becomes the caller of a new job.
///
/// Workers idle on a condition variable between jobs, so a pool can be
/// kept alive for the life of the process without burning CPU.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism including the calling thread;
  /// the pool spawns `num_threads - 1` workers. `0` means one thread per
  /// hardware thread.
  explicit ThreadPool(size_t num_threads = 0) {
    if (num_threads == 0) num_threads = DefaultThreads();
    const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
    workers_.reserve(workers);
    for (size_t t = 0; t < workers; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  /// Total parallelism (workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs `fn(0) … fn(n-1)`, distributing indices dynamically over the
  /// calling thread and the workers that join; returns once every call
  /// finished. `fn` must not throw. Distinct indices may run concurrently
  /// — callers guarantee they touch disjoint state. Safe to call from
  /// many threads at once, and from inside a task.
  ///
  /// `max_parallelism` caps this call's concurrency (caller included)
  /// below the pool size; `0` means the whole pool. The cap is hard: the
  /// job's worker-slot budget is spent under the pool lock, so no more
  /// than `max_parallelism - 1` workers ever join it. Only as many workers
  /// as the job has slots are woken, so a machine-sized pool stays cheap
  /// for a job with few tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_parallelism = 0) {
    if (n == 0) return;
    const size_t width = max_parallelism == 0
                             ? num_threads()
                             : std::min(max_parallelism, num_threads());
    if (n == 1 || width == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    Job job(fn, n, std::min(width, n) - 1);
    // Sized before the job is published: from then on its slot count is
    // the workers' to spend, under `mu_`.
    const size_t to_wake = job.slots;
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(&job);
    }
    if (to_wake >= workers_.size()) {
      wake_.notify_all();
    } else {
      for (size_t w = 0; w < to_wake; ++w) wake_.notify_one();
    }
    Drain(job);
    // Every task is claimed now. Withdraw the job so no late worker joins
    // it, then wait for the workers still running its tasks; after that no
    // worker holds a reference to it.
    std::unique_lock<std::mutex> lock(mu_);
    std::erase(jobs_, &job);
    job.done.wait(lock, [&job] { return job.active == 0; });
  }

  static size_t DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

 private:
  /// One `ParallelFor` call. It lives on the caller's stack; a worker
  /// reaches it only through `jobs_`, and only while counted in `active`.
  struct Job {
    Job(const std::function<void(size_t)>& fn_in, size_t limit_in,
        size_t slots_in)
        : fn(fn_in), limit(limit_in), slots(slots_in) {}
    const std::function<void(size_t)>& fn;
    const size_t limit;
    std::atomic<size_t> next{0};   // claim index
    size_t slots;                  // workers that may still join; `mu_`
    size_t active = 0;             // workers inside `Drain`; `mu_`
    std::condition_variable done;  // `active` reached 0
  };

  static void Drain(Job& job) {
    for (size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
         i < job.limit;
         i = job.next.fetch_add(1, std::memory_order_relaxed)) {
      job.fn(i);
    }
  }

  /// The oldest listed job with an unclaimed task. Listed jobs always have
  /// a free slot: a job leaves `jobs_` when its last slot is taken.
  Job* Claimable() const {
    for (Job* job : jobs_) {
      if (job->next.load(std::memory_order_relaxed) < job->limit) return job;
    }
    return nullptr;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Job* job = nullptr;
      wake_.wait(lock,
                 [&] { return stop_ || (job = Claimable()) != nullptr; });
      if (stop_) return;
      if (--job->slots == 0) std::erase(jobs_, job);
      ++job->active;
      lock.unlock();
      Drain(*job);
      lock.lock();
      // Notified under the lock: once it is released, the caller may
      // return and destroy the job.
      if (--job->active == 0) job->done.notify_one();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;  // guards jobs_, stop_, and each listed job's counters
  std::condition_variable wake_;
  std::vector<Job*> jobs_;
  bool stop_ = false;
};

}  // namespace fdm

#endif  // FDM_UTIL_THREAD_POOL_H_
