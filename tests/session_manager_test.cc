#include "service/session_manager.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "service/session_layout.h"
#include "service/sink_spec.h"

namespace fdm {
namespace {

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/fdm_manager_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  SessionManagerOptions Options() {
    SessionManagerOptions options;
    options.root_dir = root_;
    return options;
  }

  std::string root_;
};

Dataset TestData(size_t n = 200, uint64_t seed = 51) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;
  opt.seed = seed;
  return MakeBlobs(opt);
}

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return "algo=sfdm2 dim=2 quotas=2,2 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

// The one session-name rule behind CreateSession, the replication verbs
// and follower discovery: a name is a path component under the root
// directory, so anything that could leave it or hide in it is refused.
TEST(SessionNameTest, EdgesOfTheRule) {
  const std::string allowed =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
  EXPECT_TRUE(IsValidSessionName(allowed));
  for (const char c : allowed) {
    if (c == '.') continue;  // allowed inside a name, not first
    EXPECT_TRUE(IsValidSessionName(std::string(1, c))) << c;
  }
  EXPECT_TRUE(IsValidSessionName("a.b"));
  EXPECT_TRUE(IsValidSessionName("a.."));
  EXPECT_TRUE(IsValidSessionName(std::string(128, 'x')));
  EXPECT_FALSE(IsValidSessionName(std::string(129, 'x')));
  EXPECT_FALSE(IsValidSessionName(""));
  EXPECT_FALSE(IsValidSessionName("."));
  EXPECT_FALSE(IsValidSessionName(".."));
  EXPECT_FALSE(IsValidSessionName(".hidden"));
  EXPECT_FALSE(IsValidSessionName("../evil"));
  EXPECT_FALSE(IsValidSessionName("a/b"));
  EXPECT_FALSE(IsValidSessionName("/"));
  EXPECT_FALSE(IsValidSessionName("a b"));
  EXPECT_FALSE(IsValidSessionName(std::string("a\0b", 3)));
  EXPECT_FALSE(IsValidSessionName(std::string(1, '\0')));
  EXPECT_FALSE(IsValidSessionName("a\\b"));
  EXPECT_FALSE(IsValidSessionName("caf\xc3\xa9"));
  // The neighbours of each allowed range.
  for (const char c : std::string("/:@[`{,+*~")) {
    EXPECT_FALSE(IsValidSessionName(std::string("a") + c)) << c;
  }
}

TEST_F(SessionManagerTest, CreateObserveSolve) {
  const Dataset ds = TestData();
  auto manager = SessionManager::Create(Options());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ASSERT_TRUE((*manager)->CreateSession("alpha", SpecFor(ds)).ok());
  EXPECT_FALSE((*manager)->CreateSession("alpha", SpecFor(ds)).ok());
  EXPECT_FALSE((*manager)->CreateSession("../evil", SpecFor(ds)).ok());
  const StreamPoint first = ds.At(0);
  EXPECT_FALSE(
      (*manager)->Ingest("ghost", {&first, 1}, /*as_batch=*/false).ok());

  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("alpha", {&pt, 1}, /*as_batch=*/false).ok());
  }
  auto solution = (*manager)->Solve("alpha");
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(solution->points.size(), 4u);

  auto stats = (*manager)->Stats("alpha");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, static_cast<int64_t>(ds.size()));
  EXPECT_TRUE(stats->resident);
}

TEST_F(SessionManagerTest, KillPointRecoveryMatchesUninterrupted) {
  // Manager-level crash drill: snapshot mid-stream, ingest a WAL-only
  // tail, DropResident (no snapshot, no explicit sync — the kill-point),
  // then touch the session again and compare against an uninterrupted run.
  const Dataset ds = TestData(240, 53);
  const std::string spec = SpecFor(ds);
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < ds.size(); ++i) (*reference)->Observe(ds.At(i));
  const auto expected = (*reference)->Solve();
  ASSERT_TRUE(expected.ok());

  auto manager = SessionManager::Create(Options());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->CreateSession("durable", spec).ok());
  const size_t mid = ds.size() / 2;
  for (size_t i = 0; i < mid; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(
        (*manager)->Ingest("durable", {&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE((*manager)->Snapshot("durable").ok());
  for (size_t i = mid; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(
        (*manager)->Ingest("durable", {&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE((*manager)->DropResident("durable").ok());

  auto stats = (*manager)->Stats("durable");  // triggers recovery
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->observed, static_cast<int64_t>(ds.size()));
  auto solution = (*manager)->Solve("durable");
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->Ids(), expected->Ids());
  EXPECT_DOUBLE_EQ(solution->diversity, expected->diversity);
}

TEST_F(SessionManagerTest, SessionsSurviveManagerRestart) {
  const Dataset ds = TestData(180, 55);
  const std::string spec = SpecFor(ds);
  {
    auto manager = SessionManager::Create(Options());
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->CreateSession("persisted", spec).ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(
          (*manager)->Ingest("persisted", {&pt, 1}, /*as_batch=*/false).ok());
    }
  }  // clean shutdown snapshots everything

  auto manager = SessionManager::Create(Options());
  ASSERT_TRUE(manager.ok());
  const auto names = (*manager)->SessionNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "persisted");
  auto stats = (*manager)->Stats("persisted");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->observed, static_cast<int64_t>(ds.size()));
  // Clean shutdown means no WAL tail: recovery came straight from the
  // snapshot.
  EXPECT_EQ(stats->snapshot_seq, static_cast<int64_t>(ds.size()));
}

TEST_F(SessionManagerTest, LruSpillKeepsResidencyBounded) {
  const Dataset ds = TestData(80, 57);
  SessionManagerOptions options = Options();
  options.max_resident = 2;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  const std::vector<std::string> names = {"s0", "s1", "s2", "s3", "s4"};
  for (const std::string& name : names) {
    ASSERT_TRUE((*manager)->CreateSession(name, SpecFor(ds)).ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE((*manager)->Ingest(name, {&pt, 1}, /*as_batch=*/false).ok());
    }
    EXPECT_LE((*manager)->ResidentCount(), 2u);
  }
  // The oldest session must have been spilled by now — and Stats reports
  // its pre-call residency, not the post-load state.
  {
    auto stats = (*manager)->Stats(names.front());
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->resident);
  }
  // Spilled sessions reload transparently — with their full state.
  for (const std::string& name : names) {
    auto stats = (*manager)->Stats(name);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    EXPECT_EQ(stats->observed, static_cast<int64_t>(ds.size())) << name;
    auto solution = (*manager)->Solve(name);
    EXPECT_TRUE(solution.ok()) << name;
  }
  EXPECT_LE((*manager)->ResidentCount(), 2u);
}

TEST_F(SessionManagerTest, ConcurrentIngestAcrossSessions) {
  const Dataset ds = TestData(400, 59);
  auto manager = SessionManager::Create(Options());
  ASSERT_TRUE(manager.ok());
  constexpr int kSessions = 4;
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(
        (*manager)->CreateSession("t" + std::to_string(s), SpecFor(ds)).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      const std::string name = "t" + std::to_string(s);
      for (size_t i = 0; i < ds.size(); ++i) {
        const StreamPoint pt = ds.At(i);
        if (!(*manager)->Ingest(name, {&pt, 1}, /*as_batch=*/false).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  for (int s = 0; s < kSessions; ++s) {
    auto stats = (*manager)->Stats("t" + std::to_string(s));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->observed, static_cast<int64_t>(ds.size()));
  }
}

TEST_F(SessionManagerTest, BackgroundThreadSnapshotsIdleSessions) {
  const Dataset ds = TestData(120, 61);
  SessionManagerOptions options = Options();
  options.background_snapshot_ms = 20;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->CreateSession("bg", SpecFor(ds)).ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("bg", {&pt, 1}, /*as_batch=*/false).ok());
  }
  // The background sweep must persist the session without any explicit
  // Snapshot call.
  int64_t snapshot_seq = 0;
  for (int tries = 0; tries < 100; ++tries) {
    auto stats = (*manager)->Stats("bg");
    ASSERT_TRUE(stats.ok());
    snapshot_seq = stats->snapshot_seq;
    if (snapshot_seq == static_cast<int64_t>(ds.size())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(snapshot_seq, static_cast<int64_t>(ds.size()));
}

TEST_F(SessionManagerTest, BatchIngestMatchesPerElement) {
  const Dataset ds = TestData(300, 63);
  auto manager = SessionManager::Create(Options());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->CreateSession("one", SpecFor(ds)).ok());
  ASSERT_TRUE((*manager)->CreateSession("batch", SpecFor(ds)).ok());
  std::vector<StreamPoint> points;
  points.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE((*manager)->Ingest("one", {&pt, 1}, /*as_batch=*/false).ok());
    points.push_back(ds.At(i));
  }
  for (size_t at = 0; at < points.size(); at += 64) {
    const size_t len = std::min<size_t>(64, points.size() - at);
    ASSERT_TRUE((*manager)
                    ->Ingest("batch",
                             std::span<const StreamPoint>(points).subspan(
                                 at, len),
                             /*as_batch=*/true)
                    .ok());
  }
  auto a = (*manager)->Solve("one");
  auto b = (*manager)->Solve("batch");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Ids(), b->Ids());
  EXPECT_DOUBLE_EQ(a->diversity, b->diversity);
}

TEST_F(SessionManagerTest, StatsDoesNotWaitForAColdSolveOfTheSameSession) {
  // Queries hold the session lock shared and only shared: a resident
  // session's residency is checked under it, so STATS runs beside a cold
  // SOLVE of the same session instead of queueing for the exclusive lock.
  // A cold solve records its miss when it ends, so a STATS reply reading
  // solve_misses=0 was answered while that solve was still running. STATS
  // is issued 2 ms into a solve of ~20 ms; a host that stalls this thread
  // past the solve's end can lose one round, so two of three must hold (a
  // STATS that waits for the lock loses all three).
  BlobsOptions blobs;
  blobs.n = 5000;
  blobs.dim = 16;
  blobs.seed = 65;
  const Dataset ds = MakeBlobs(blobs);
  std::vector<StreamPoint> points;
  points.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  // Many rungs and a large k: a cold solve of tens of milliseconds.
  const std::string spec =
      "algo=sfdm2 dim=16 quotas=40,40 eps=0.05 dmin=0.1 dmax=100";
  auto manager = SessionManager::Create(Options());
  ASSERT_TRUE(manager.ok());
  int answered_during_solve = 0;
  for (int round = 0; round < 3; ++round) {
    const std::string name = "cold" + std::to_string(round);
    ASSERT_TRUE((*manager)->CreateSession(name, spec).ok());
    ASSERT_TRUE((*manager)->Ingest(name, points, /*as_batch=*/true).ok());
    std::atomic<bool> started{false};
    std::thread solver([&] {
      started.store(true);
      EXPECT_TRUE((*manager)->Solve(name).ok());
    });
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto during = (*manager)->Stats(name);
    solver.join();
    ASSERT_TRUE(during.ok()) << during.status().ToString();
    EXPECT_EQ(during->observed, static_cast<int64_t>(ds.size()));
    if (during->solve_misses == 0) ++answered_during_solve;
    auto after = (*manager)->Stats(name);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->solve_misses, 1u);
  }
  EXPECT_GE(answered_during_solve, 2) << "STATS waited for the cold solve";
}

}  // namespace
}  // namespace fdm
