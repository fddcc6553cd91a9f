#ifndef FDM_UTIL_PERIODIC_THREAD_H_
#define FDM_UTIL_PERIODIC_THREAD_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace fdm {

/// A background thread that runs one function every period until stopped:
/// the session manager's snapshot sweep, the follower's poll and the
/// metrics dump. Each run starts one period after the previous one ended.
class PeriodicThread {
 public:
  PeriodicThread() = default;
  ~PeriodicThread() { Stop(); }

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  /// Runs `fn` every `period_ms` on a new thread; a period of 0 starts
  /// nothing. Call at most once.
  void Start(int period_ms, std::function<void()> fn) {
    if (period_ms <= 0) return;
    thread_ = std::thread([this, period = std::chrono::milliseconds(period_ms),
                           fn = std::move(fn)] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, period, [this] { return stopping_; })) {
        lock.unlock();
        fn();
        lock.lock();
      }
    });
  }

  /// Wakes the thread, waits out a run in progress and joins, so the
  /// owner's final pass (a last snapshot sweep or dump) never overlaps a
  /// periodic one. A no-op when nothing runs.
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;  // guards stopping_
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace fdm

#endif  // FDM_UTIL_PERIODIC_THREAD_H_
