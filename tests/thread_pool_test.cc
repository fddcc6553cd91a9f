#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int batch = 0; batch < 100; ++batch) {
    pool.ParallelFor(17, [&](size_t i) {
      sum.fetch_add(static_cast<int64_t>(i) + 1);
    });
  }
  // 100 batches × Σ 1..17.
  EXPECT_EQ(sum.load(), 100 * 17 * 18 / 2);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DisjointWritesNeedNoSynchronization) {
  // The contract the ingestion paths rely on: each index owns a slot.
  ThreadPool pool(4);
  constexpr size_t kN = 512;
  std::vector<int64_t> out(kN, -1);
  pool.ParallelFor(kN, [&](size_t i) { out[i] = static_cast<int64_t>(i * i); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], static_cast<int64_t>(i * i));
  }
}

TEST(ThreadPoolTest, MaxParallelismOneRunsInlineAndInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;  // unsynchronized: only valid if truly inline
  pool.ParallelFor(
      8, [&](size_t i) { order.push_back(static_cast<int>(i)); },
      /*max_parallelism=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, MaxParallelismCapBoundsConcurrencyButRunsAll) {
  ThreadPool pool(8);
  constexpr size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(
      kN,
      [&](size_t i) {
        const int now = live.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        hits[i].fetch_add(1);
        live.fetch_sub(1);
      },
      /*max_parallelism=*/3);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  // At most `max_parallelism` tasks may ever run at once (2 claimed
  // workers + the caller). Peak observing fewer is fine — the cap is an
  // upper bound, not a scheduling guarantee.
  EXPECT_LE(peak.load(), 3);
}

// A caller waits only on its own job. Here a task of thread A's job
// cannot finish until a task of the main thread's job runs; a pool that
// ran one job at a time would hold the main thread's call behind A's and
// time out.
TEST(ThreadPoolTest, CallerNeverWaitsOnAnotherCallersJob) {
  ThreadPool pool(4);
  std::atomic<bool> a_waiting{false};
  std::atomic<bool> flag{false};
  std::atomic<bool> timed_out{false};
  std::thread a([&] {
    pool.ParallelFor(2, [&](size_t i) {
      if (i != 0) return;
      a_waiting.store(true);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (!flag.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!a_waiting.load()) std::this_thread::yield();
  pool.ParallelFor(2, [&](size_t) { flag.store(true); });
  a.join();
  EXPECT_FALSE(timed_out.load())
      << "the second caller's job waited behind the first caller's";
}

// Many callers at once, each with its own cap, some tasks starting nested
// jobs: every index of every job runs exactly once, and no job ever runs
// more tasks at once than its cap.
TEST(ThreadPoolTest, ConcurrentCappedNestedCallers) {
  ThreadPool pool(8);
  constexpr int kCallers = 8;
  constexpr int kCallsEach = 300;
  std::atomic<int> failures{0};
  // Runs one capped job of `n` tasks; task i calls `body(i)`.
  const auto run_job = [&](size_t n, size_t cap, const auto& body) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    pool.ParallelFor(
        n,
        [&](size_t i) {
          const int now = live.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          body(i);
          hits[i].fetch_add(1);
          live.fetch_sub(1);
        },
        cap);
    for (size_t i = 0; i < n; ++i) {
      if (hits[i].load() != 1) failures.fetch_add(1);
    }
    if (peak.load() > static_cast<int>(cap)) failures.fetch_add(1);
  };
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const size_t cap = 1 + static_cast<size_t>(c % 4);
      for (int call = 0; call < kCallsEach; ++call) {
        const size_t n = 1 + static_cast<size_t>((c * 7 + call * 13) % 40);
        run_job(n, cap, [&](size_t i) {
          if (i % 5 == 0) run_job(3, 2, [](size_t) {});
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace fdm
