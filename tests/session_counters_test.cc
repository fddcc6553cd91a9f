// The SessionStats coverage gap closed by the stats footer: cumulative
// observed/kept counts, batch counts, and snapshot/restore timings must
// survive snapshot + reopen, LRU spill, and crash recovery with a WAL
// tail — the footer persists the counters and replay adds back the tail's
// mutations, so the recovered numbers are exact, not approximate. These
// counters are plain session state (not registry metrics), so the suite
// asserts identically under FDM_NO_METRICS.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "file_bytes.h"
#include "service/durable_session.h"
#include "service/session_manager.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

class SessionCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_session_counters_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

Dataset TestData(size_t n = 120) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;
  opt.seed = 77;
  return MakeBlobs(opt);
}

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
         " quotas=2,2 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

Status FeedBatched(DurableSession& session, const Dataset& ds, size_t begin,
                   size_t end, size_t batch_size = 32) {
  std::vector<StreamPoint> batch;
  for (size_t i = begin; i < end; ++i) {
    batch.push_back(ds.At(i));
    if (batch.size() == batch_size || i + 1 == end) {
      if (Status s = session.Ingest(batch, /*as_batch=*/true).status();
          !s.ok()) {
        return s;
      }
      batch.clear();
    }
  }
  return Status::Ok();
}

TEST_F(SessionCountersTest, CountersAccumulateAndPersistAcrossReopen) {
  const Dataset ds = TestData();
  SessionIngestCounters live;
  {
    auto session = DurableSession::Create(dir_, SpecFor(ds));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(FeedBatched(*session, ds, 0, ds.size()).ok());
    live = session->IngestCounters();
    EXPECT_GT(live.kept_total, 0);
    EXPECT_EQ((static_cast<int64_t>(ds.size()) + 31) / 32,
              live.ingest_batches);
    EXPECT_EQ(0, live.snapshots_taken);
    EXPECT_EQ(0, live.restores);
    ASSERT_TRUE(session->TakeSnapshot().ok());
    live = session->IngestCounters();
    EXPECT_EQ(1, live.snapshots_taken);
    EXPECT_GT(live.snapshot_write_ms_total, 0.0);
  }
  // Reopen: the footer restores the counters; the WAL tail is empty (the
  // snapshot covered everything) so replay adds nothing, and the reopen
  // itself counts as one restore.
  auto reopened = DurableSession::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const SessionIngestCounters& recovered = reopened->IngestCounters();
  EXPECT_EQ(live.kept_total, recovered.kept_total);
  EXPECT_EQ(live.ingest_batches, recovered.ingest_batches);
  EXPECT_EQ(live.snapshots_taken, recovered.snapshots_taken);
  EXPECT_EQ(1, recovered.restores);
  EXPECT_EQ(0, recovered.replayed_records);
  // The persisted write-time excludes the carrying snapshot's final file
  // write, so it is a lower bound on the live value, never more.
  EXPECT_LE(recovered.snapshot_write_ms_total, live.snapshot_write_ms_total);
}

TEST_F(SessionCountersTest, CrashRecoveryWithWalTailKeepsKeptExact) {
  const Dataset ds = TestData();
  const size_t mid = ds.size() / 2;
  SessionIngestCounters before;
  {
    auto session = DurableSession::Create(dir_, SpecFor(ds));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(FeedBatched(*session, ds, 0, mid).ok());
    ASSERT_TRUE(session->TakeSnapshot().ok());
    // Tail past the snapshot: these mutations exist only in the WAL.
    ASSERT_TRUE(FeedBatched(*session, ds, mid, ds.size()).ok());
    ASSERT_TRUE(session->Sync().ok());
    before = session->IngestCounters();
    // "Crash": drop the object without another snapshot.
  }
  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const SessionIngestCounters& after = recovered->IngestCounters();
  // kept = footer value (pre-snapshot) + the tail's replayed mutations —
  // exactly the pre-crash total, because replay is decision-identical.
  EXPECT_EQ(before.kept_total, after.kept_total);
  EXPECT_EQ(1, after.restores);
  EXPECT_EQ(static_cast<int64_t>(ds.size() - mid), after.replayed_records);
  // Batch count restores to the footer value: the tail batches were never
  // snapshotted, and replay is not client ingest.
  EXPECT_LE(after.ingest_batches, before.ingest_batches);
}

// A session fed by OBSERVE (one point per call) counts kept in the same
// unit as WAL replay, the sink's rung inserts: 200 per-element points, a
// snapshot after the fifth, and a crash recover the live kept_total
// exactly.
TEST_F(SessionCountersTest, PerElementIngestKeptSurvivesRecoveryExactly) {
  const Dataset ds = TestData(200);
  SessionIngestCounters before;
  {
    auto session = DurableSession::Create(dir_, SpecFor(ds));
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint point = ds.At(i);
      ASSERT_TRUE(session->Ingest({&point, 1}, /*as_batch=*/false).ok());
      if (i == 4) {
        ASSERT_TRUE(session->TakeSnapshot().ok());
      }
    }
    ASSERT_TRUE(session->Sync().ok());
    before = session->IngestCounters();
    EXPECT_EQ(before.ingest_batches, 0);
  }
  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->IngestCounters().kept_total, before.kept_total);
  EXPECT_EQ(recovered->IngestCounters().replayed_records, 195);
}

TEST_F(SessionCountersTest, DoubleCrashStaysExact) {
  const Dataset ds = TestData();
  const size_t mid = ds.size() / 2;
  int64_t expected_kept = 0;
  {
    auto session = DurableSession::Create(dir_, SpecFor(ds));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(FeedBatched(*session, ds, 0, mid).ok());
    ASSERT_TRUE(session->TakeSnapshot().ok());
    ASSERT_TRUE(FeedBatched(*session, ds, mid, ds.size()).ok());
    ASSERT_TRUE(session->Sync().ok());
    expected_kept = session->IngestCounters().kept_total;
  }
  {
    // First recovery replays the tail, snapshots (footer now carries the
    // replay-adjusted counters), then crashes again.
    auto session = DurableSession::Open(dir_);
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(expected_kept, session->IngestCounters().kept_total);
    ASSERT_TRUE(session->TakeSnapshot().ok());
  }
  auto session = DurableSession::Open(dir_);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(expected_kept, session->IngestCounters().kept_total);
  EXPECT_EQ(2, session->IngestCounters().restores);
}

TEST_F(SessionCountersTest, PreFooterSnapshotsLoadAsZeros) {
  // Back-compat: a snapshot written without the stats footer (an older
  // generation's format) must load leniently — counters come back as
  // zeros plus the restore bookkeeping, never a parse failure, and the
  // sink state is untouched. Simulated by stripping the footer from a
  // real snapshot file and re-framing it with a valid checksum.
  const Dataset ds = TestData(40);
  int64_t kept_live = 0;
  {
    auto session = DurableSession::Create(dir_, SpecFor(ds));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(FeedBatched(*session, ds, 0, ds.size()).ok());
    kept_live = session->IngestCounters().kept_total;
    ASSERT_TRUE(session->TakeSnapshot().ok());
  }
  std::string snap_path;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/snap")) {
    snap_path = entry.path().string();
  }
  ASSERT_FALSE(snap_path.empty());
  auto framed = FileBytes(snap_path);
  ASSERT_TRUE(framed.ok());
  // Frame layout: magic(8) + version u32 + payload-size u64 + payload +
  // FNV-1a u64. Cut the payload just before the footer tag's u64 length
  // prefix, then re-frame the shorter payload.
  constexpr size_t kHeader = 8 + 4 + 8;
  const size_t tag_pos = framed->find("fdm.session.stats");
  ASSERT_NE(std::string::npos, tag_pos);
  const std::string payload =
      framed->substr(kHeader, tag_pos - sizeof(uint64_t) - kHeader);
  std::string stripped = framed->substr(0, 8 + 4);
  const uint64_t payload_size = payload.size();
  stripped.append(reinterpret_cast<const char*>(&payload_size),
                  sizeof(payload_size));
  stripped += payload;
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
  stripped.append(reinterpret_cast<const char*>(&checksum),
                  sizeof(checksum));
  {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out << stripped;
  }

  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The cumulative counters predate the footer: zeros, plus this restore.
  EXPECT_EQ(0, recovered->IngestCounters().kept_total);
  EXPECT_EQ(0, recovered->IngestCounters().ingest_batches);
  EXPECT_EQ(1, recovered->IngestCounters().restores);
  // The sink itself is intact — only the session-layer counters are gone.
  EXPECT_EQ(static_cast<int64_t>(ds.size()),
            recovered->ObservedElements());
  EXPECT_GT(kept_live, 0);
}

TEST_F(SessionCountersTest, StatsSurviveLruSpill) {
  const Dataset ds = TestData();
  SessionManagerOptions options;
  options.root_dir = dir_;
  options.max_resident = 1;  // touching any other session spills this one
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  const std::string spec = SpecFor(ds);
  ASSERT_TRUE((*manager)->CreateSession("a", spec).ok());
  std::vector<StreamPoint> batch;
  for (size_t i = 0; i < ds.size(); ++i) batch.push_back(ds.At(i));
  ASSERT_TRUE((*manager)->Ingest("a", batch, /*as_batch=*/true).ok());
  auto before = (*manager)->Stats("a");
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before->kept, 0);
  EXPECT_EQ(1, before->ingest_batches);

  // Touch a second session: "a" is spilled (snapshot + eviction), then
  // recovered on the next Stats touch. The counters must come back.
  ASSERT_TRUE((*manager)->CreateSession("b", spec).ok());
  const StreamPoint pt = ds.At(0);
  ASSERT_TRUE((*manager)->Ingest("b", {&pt, 1}, /*as_batch=*/false).ok());
  auto after = (*manager)->Stats("a");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->kept, after->kept);
  EXPECT_EQ(before->ingest_batches, after->ingest_batches);
  EXPECT_GE(after->restores, 1);
  EXPECT_GE(after->snapshots_taken, 1);  // the spill's snapshot
}

}  // namespace
}  // namespace fdm
