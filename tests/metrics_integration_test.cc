// The METRICS plane end to end: driving the real product paths — batched
// ingest, cached/cold solves, WAL appends, snapshots, crash recovery, and
// a fault-injected replica run — must move the corresponding registry
// series. Registry state is process-global with no reset, so every assert
// is a delta around the driven operation. The suite compiles under
// FDM_NO_METRICS too (the registry API is stubbed); the registry asserts
// are skipped there.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "obs/metrics.h"
#include "replica/replica_session.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"

namespace fdm {
namespace {

class MetricsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kMetricsEnabled) GTEST_SKIP() << "FDM_NO_METRICS build";
    dir_ = ::testing::TempDir() + "/fdm_metrics_integration_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

Dataset TestData(size_t n = 150, uint64_t seed = 31) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;
  opt.seed = seed;
  return MakeBlobs(opt);
}

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
         " quotas=2,2 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "").Value();
}

uint64_t HistCount(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name, "").Snapshot().count;
}

Status FeedBatched(DurableSession& session, const Dataset& ds, size_t begin,
                   size_t end) {
  std::vector<StreamPoint> batch;
  for (size_t i = begin; i < end; ++i) {
    batch.push_back(ds.At(i));
    if (batch.size() == 64 || i + 1 == end) {
      if (Status s = session.Ingest(batch, /*as_batch=*/true).status();
          !s.ok()) {
        return s;
      }
      batch.clear();
    }
  }
  return Status::Ok();
}

TEST_F(MetricsIntegrationTest, IngestSolveWalAndSnapshotSeriesMove) {
  const Dataset ds = TestData();
  const uint64_t observed0 = CounterValue("fdm_ingest_points_observed_total");
  const uint64_t kept0 = CounterValue("fdm_ingest_points_kept_total");
  const uint64_t wal_records0 = CounterValue("fdm_wal_append_records_total");
  const uint64_t wal_bytes0 = CounterValue("fdm_wal_append_bytes_total");
  const uint64_t batches0 = HistCount("fdm_ingest_batch_points");
  const uint64_t cold0 = HistCount("fdm_solve_cold_ns");
  const uint64_t cached0 = HistCount("fdm_solve_cached_ns");
  const uint64_t hits0 = CounterValue("fdm_solve_hits_total");
  const uint64_t misses0 = CounterValue("fdm_solve_misses_total");
  const uint64_t snaps0 = HistCount("fdm_snapshot_write_ns");
  const uint64_t snap_bytes0 = CounterValue("fdm_snapshot_bytes_total");

  auto session = DurableSession::Create(dir_, SpecFor(ds));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(FeedBatched(*session, ds, 0, ds.size()).ok());
  ASSERT_TRUE(session->Solve().ok());  // cold: post-processing runs
  ASSERT_TRUE(session->Solve().ok());  // cached: version unchanged
  ASSERT_TRUE(session->TakeSnapshot().ok());

  EXPECT_EQ(observed0 + ds.size(),
            CounterValue("fdm_ingest_points_observed_total"));
  EXPECT_GT(CounterValue("fdm_ingest_points_kept_total"), kept0);
  EXPECT_EQ(wal_records0 + ds.size(),
            CounterValue("fdm_wal_append_records_total"));
  EXPECT_GT(CounterValue("fdm_wal_append_bytes_total"), wal_bytes0);
  EXPECT_GT(HistCount("fdm_ingest_batch_points"), batches0);
  EXPECT_EQ(cold0 + 1, HistCount("fdm_solve_cold_ns"));
  EXPECT_EQ(cached0 + 1, HistCount("fdm_solve_cached_ns"));
  EXPECT_EQ(hits0 + 1, CounterValue("fdm_solve_hits_total"));
  EXPECT_EQ(misses0 + 1, CounterValue("fdm_solve_misses_total"));
  EXPECT_EQ(snaps0 + 1, HistCount("fdm_snapshot_write_ns"));
  EXPECT_GT(CounterValue("fdm_snapshot_bytes_total"), snap_bytes0);
}

TEST_F(MetricsIntegrationTest, CrashRecoverySeriesMove) {
  const Dataset ds = TestData();
  {
    auto session = DurableSession::Create(dir_, SpecFor(ds));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(FeedBatched(*session, ds, 0, ds.size() / 2).ok());
    ASSERT_TRUE(session->TakeSnapshot().ok());
    ASSERT_TRUE(FeedBatched(*session, ds, ds.size() / 2, ds.size()).ok());
    ASSERT_TRUE(session->Sync().ok());
  }
  const uint64_t restores0 = CounterValue("fdm_session_restores_total");
  const uint64_t restore_ns0 = HistCount("fdm_session_restore_ns");
  const uint64_t replayed0 = CounterValue("fdm_wal_replay_records_total");
  const uint64_t replays0 = HistCount("fdm_wal_replay_ns");

  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  EXPECT_EQ(restores0 + 1, CounterValue("fdm_session_restores_total"));
  EXPECT_EQ(restore_ns0 + 1, HistCount("fdm_session_restore_ns"));
  EXPECT_EQ(replayed0 + (ds.size() - ds.size() / 2),
            CounterValue("fdm_wal_replay_records_total"));
  EXPECT_EQ(replays0 + 1, HistCount("fdm_wal_replay_ns"));
}

TEST_F(MetricsIntegrationTest, ReplicaSeriesMoveThroughCatchUp) {
  const Dataset ds = TestData();
  DurableSessionOptions options;
  options.wal.segment_bytes = 1024;  // plenty of segments to fetch
  auto primary = DurableSession::Create(dir_, SpecFor(ds), options);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(FeedBatched(*primary, ds, 0, ds.size() / 2).ok());
  ASSERT_TRUE(primary->TakeSnapshot().ok());
  ASSERT_TRUE(primary->Sync().ok());

  const uint64_t bootstraps0 = CounterValue("fdm_replica_bootstraps_total");
  const uint64_t snaps_loaded0 =
      CounterValue("fdm_replica_snapshots_loaded_total");
  const uint64_t fetch_bytes0 = CounterValue("fdm_replica_fetch_bytes_total");
  const uint64_t applied0 = CounterValue("fdm_replica_apply_records_total");
  const uint64_t segments0 = CounterValue("fdm_replica_segments_fetched_total");
  const uint64_t polls0 = HistCount("fdm_replica_poll_ns");
  const uint64_t lags0 = HistCount("fdm_replica_lag");

  auto follower = ReplicaSession::Bootstrap(
      std::make_shared<DirReplicationSource>(dir_));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  EXPECT_EQ(bootstraps0 + 1, CounterValue("fdm_replica_bootstraps_total"));
  EXPECT_GT(CounterValue("fdm_replica_snapshots_loaded_total"), snaps_loaded0);
  EXPECT_GT(CounterValue("fdm_replica_fetch_bytes_total"), fetch_bytes0);

  // Grow the primary past the follower, then poll: records apply, the
  // poll latency histogram gets a sample, and the lag histogram records
  // the post-poll distance.
  ASSERT_TRUE(FeedBatched(*primary, ds, ds.size() / 2, ds.size()).ok());
  ASSERT_TRUE(primary->Sync().ok());
  auto applied = follower->Poll();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(*applied, 0);

  EXPECT_EQ(applied0 + static_cast<uint64_t>(*applied),
            CounterValue("fdm_replica_apply_records_total"));
  EXPECT_GT(CounterValue("fdm_replica_segments_fetched_total"), segments0);
  EXPECT_GT(HistCount("fdm_replica_poll_ns"), polls0);
  EXPECT_GT(HistCount("fdm_replica_lag"), lags0);
}

TEST_F(MetricsIntegrationTest, DivergenceRebuildSeriesMoves) {
  // The power-loss scenario from the replica suite: history rewritten
  // under the same sequence numbers forces the follower to detect the
  // version mismatch and rebuild — and the registry must show it.
  const Dataset ds = TestData(80, 47);
  const std::string spec = SpecFor(ds);
  {
    auto primary = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE(FeedBatched(*primary, ds, 0, ds.size()).ok());
    ASSERT_TRUE(primary->Sync().ok());
  }
  auto follower = ReplicaSession::Bootstrap(
      std::make_shared<DirReplicationSource>(dir_));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  std::filesystem::remove_all(dir_);
  auto rewritten = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(rewritten.ok());
  const std::vector<double> constant = {1.0, 1.0};
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt{static_cast<int64_t>(i), 0, constant};
    ASSERT_TRUE(rewritten->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(rewritten->Sync().ok());

  const uint64_t diverged0 =
      CounterValue("fdm_replica_divergence_rebuilds_total");
  auto polled = follower->Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_GT(CounterValue("fdm_replica_divergence_rebuilds_total"), diverged0);
}

TEST_F(MetricsIntegrationTest, KernelScanCountersAndTargetInfoPublish) {
  const Dataset ds = TestData();
  const uint64_t scans0 = CounterValue("fdm_kernel_many_scans_total") +
                          CounterValue("fdm_kernel_dists_scans_total") +
                          CounterValue("fdm_kernel_min_scans_total");
  auto session = DurableSession::Create(dir_, SpecFor(ds));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(FeedBatched(*session, ds, 0, ds.size()).ok());
  ASSERT_TRUE(session->Solve().ok());
  const uint64_t scans1 = CounterValue("fdm_kernel_many_scans_total") +
                          CounterValue("fdm_kernel_dists_scans_total") +
                          CounterValue("fdm_kernel_min_scans_total");
  EXPECT_GT(scans1, scans0);
  // The dispatch target publishes itself as an info series on first use.
  const std::string prom = obs::MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(std::string::npos, prom.find("fdm_kernel_target{value=\""));
}

}  // namespace
}  // namespace fdm
