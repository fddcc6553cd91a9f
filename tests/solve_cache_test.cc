// SolveCache unit behaviour and the serving-side query path: cached SOLVEs
// under shared session locks, cache stats surfaced through
// SessionManager::Stats, and warm-cache survival across LRU spills and
// crash-recovery drills (state versions are chunking-invariant under WAL
// replay, so a matching cache entry stays valid).

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/solve_cache.h"
#include "core/sfdm2.h"
#include "data/synthetic.h"
#include "service/session_manager.h"

namespace fdm {
namespace {

Dataset TestData(size_t n = 80) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;
  opt.seed = 91;
  return MakeBlobs(opt);
}

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
         " quotas=2,2 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

std::string TempRoot(const std::string& tag) {
  return ::testing::TempDir() + "/fdm_solve_cache_" + tag;
}

TEST(SolveCacheTest, HitsOnlyOnMatchingVersion) {
  SolveCache cache;
  int computes = 0;
  auto solver = [&computes]() -> Result<Solution> {
    ++computes;
    Solution s(2);
    s.diversity = static_cast<double>(computes);
    return s;
  };
  auto first = cache.GetOrCompute(7, solver);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(1, computes);
  // Same version: served from cache, bit-identical payload.
  auto again = cache.GetOrCompute(7, solver);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(1, computes);
  EXPECT_EQ(first->diversity, again->diversity);
  // New version: recomputed.
  auto moved = cache.GetOrCompute(8, solver);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(2, computes);
  const SolveCache::Stats stats = cache.GetStats();
  EXPECT_EQ(1u, stats.hits);
  EXPECT_EQ(2u, stats.misses);
  EXPECT_EQ(8u, stats.cached_version);
}

TEST(SolveCacheTest, CachesFailuresToo) {
  SolveCache cache;
  int computes = 0;
  auto solver = [&computes]() -> Result<Solution> {
    ++computes;
    return Status::Infeasible("not enough points yet");
  };
  EXPECT_FALSE(cache.GetOrCompute(1, solver).ok());
  EXPECT_FALSE(cache.GetOrCompute(1, solver).ok());
  // An Infeasible stream stays infeasible until state changes — the second
  // query must not pay for a recompute.
  EXPECT_EQ(1, computes);
  cache.Invalidate();
  EXPECT_FALSE(cache.GetOrCompute(1, solver).ok());
  EXPECT_EQ(2, computes);
}

TEST(SolveCacheTest, ManagerServesCachedSolvesAndReportsStats) {
  const Dataset ds = TestData();
  SessionManagerOptions options;
  options.root_dir = TempRoot("stats");
  std::filesystem::remove_all(options.root_dir);
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->CreateSession("s", SpecFor(ds)).ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("s", {&pt, 1}, /*as_batch=*/false).ok());
  }
  auto first = (*manager)->Solve("s");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = (*manager)->Solve("s");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Ids(), second->Ids());
  EXPECT_EQ(first->diversity, second->diversity);

  auto stats = (*manager)->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(1u, stats->solve_misses);
  EXPECT_EQ(1u, stats->solve_hits);
  EXPECT_GT(stats->state_version, 0u);
  // The cold compute and the cached serve each have one latency sample,
  // so both percentile series report (p99 of one sample = that sample's
  // bucket upper bound, always > 0 for a non-zero-duration solve).
  EXPECT_GT(stats->solve_p99_cold_ms, 0.0);
  EXPECT_GT(stats->solve_p99_cached_ms, 0.0);
  EXPECT_GE(stats->solve_p99_cold_ms, stats->solve_p50_cold_ms);
  EXPECT_GE(stats->solve_p99_cached_ms, stats->solve_p50_cached_ms);

  // Ingesting a point that mutates state invalidates; one that does not
  // keeps serving cache hits. Re-observing a seen point never mutates.
  const StreamPoint seen = ds.At(0);
  ASSERT_TRUE((*manager)->Ingest("s", {&seen, 1}, /*as_batch=*/false).ok());
  auto third = (*manager)->Solve("s");
  ASSERT_TRUE(third.ok());
  stats = (*manager)->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(1u, stats->solve_misses);
  EXPECT_EQ(2u, stats->solve_hits);

  std::filesystem::remove_all(options.root_dir);
}

TEST(SolveCacheTest, WarmCacheSurvivesCrashRecoveryDrill) {
  const Dataset ds = TestData();
  SessionManagerOptions options;
  options.root_dir = TempRoot("recovery");
  std::filesystem::remove_all(options.root_dir);
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->CreateSession("s", SpecFor(ds)).ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("s", {&pt, 1}, /*as_batch=*/false).ok());
  }
  auto before = (*manager)->Solve("s");
  ASSERT_TRUE(before.ok());

  // Crash drill: drop the in-memory sink; the next touch recovers from
  // snapshot + WAL tail. The replayed sink reaches the same state version
  // (chunking-invariant), so the entry's cache is still valid and the
  // first post-recovery SOLVE is a hit — no post-processing rerun.
  ASSERT_TRUE((*manager)->DropResident("s").ok());
  auto after = (*manager)->Solve("s");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->Ids(), after->Ids());
  EXPECT_EQ(before->diversity, after->diversity);
  auto stats = (*manager)->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(1u, stats->solve_misses);
  EXPECT_GE(stats->solve_hits, 1u);

  std::filesystem::remove_all(options.root_dir);
}

TEST(SolveCacheTest, ConcurrentQueriesAndIngestStayConsistent) {
  const Dataset ds = TestData(200);
  SessionManagerOptions options;
  options.root_dir = TempRoot("concurrent");
  std::filesystem::remove_all(options.root_dir);
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->CreateSession("a", SpecFor(ds)).ok());
  ASSERT_TRUE((*manager)->CreateSession("b", SpecFor(ds)).ok());
  // Prime session "a" so queries have something to answer.
  for (size_t i = 0; i < 40; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("a", {&pt, 1}, /*as_batch=*/false).ok());
  }

  // Ingest into "b" while hammering "a" with SOLVE + STATS from several
  // reader threads: queries on "a" hold its lock shared (concurrent with
  // each other) and never serialize against "b"'s ingest. TSan/ASan CI
  // runs this test too, so races would surface there.
  std::atomic<bool> stop{false};
  std::atomic<int> query_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto solution = (*manager)->Solve("a");
        auto stats = (*manager)->Stats("a");
        if (!solution.ok() || !stats.ok()) {
          query_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint point = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("b", {&point, 1}, /*as_batch=*/true).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(0, query_errors.load());

  std::filesystem::remove_all(options.root_dir);
}

}  // namespace
}  // namespace fdm
