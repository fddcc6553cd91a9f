// Crash-recovery semantics of one durable session: snapshot + WAL tail
// replay reproduces the uninterrupted run bit-identically, for every
// registered algorithm kind, with the kill-point injected between the WAL
// append of the tail and the next snapshot.

#include "service/durable_session.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "file_bytes.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

class DurableSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_durable_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

Dataset TestData(int m, size_t n = 150, uint64_t seed = 31) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = m;
  opt.seed = seed;
  return MakeBlobs(opt);
}

std::string BoundsSuffix(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return " dmin=" + std::to_string(b.min) + " dmax=" + std::to_string(b.max);
}

// The session's WAL segments as "name:bytes", in sequence order.
std::vector<std::string> WalSegments(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/wal")) {
    auto bytes = FileBytes(entry.path().string());
    EXPECT_TRUE(bytes.ok());
    segments.push_back(entry.path().filename().string() + ":" +
                       (bytes.ok() ? *bytes : ""));
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::string SinkBytes(const StreamSink& sink) {
  SnapshotWriter writer;
  EXPECT_TRUE(sink.Snapshot(writer).ok());
  return writer.Serialize();
}

void ExpectSameSolution(const StreamSink& a, const StreamSink& b) {
  ASSERT_EQ(a.ObservedElements(), b.ObservedElements());
  ASSERT_EQ(a.StoredElements(), b.StoredElements());
  const auto sa = a.Solve();
  const auto sb = b.Solve();
  ASSERT_EQ(sa.ok(), sb.ok());
  if (!sa.ok()) return;
  EXPECT_EQ(sa->Ids(), sb->Ids());
  EXPECT_DOUBLE_EQ(sa->diversity, sb->diversity);
  EXPECT_DOUBLE_EQ(sa->mu, sb->mu);
}

TEST_F(DurableSessionTest, BasicLifecycle) {
  const Dataset ds = TestData(2);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  EXPECT_EQ(session->ObservedElements(), static_cast<int64_t>(ds.size()));
  const auto solution = session->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(solution->points.size(), 4u);
  ASSERT_TRUE(session->TakeSnapshot().ok());
  EXPECT_EQ(session->SnapshotSeq(), static_cast<int64_t>(ds.size()));
}

TEST_F(DurableSessionTest, CreateTwiceFails) {
  const std::string spec = "algo=adaptive dim=2 k=3";
  ASSERT_TRUE(DurableSession::Create(dir_, spec).ok());
  EXPECT_FALSE(DurableSession::Create(dir_, spec).ok());
}

TEST_F(DurableSessionTest, OpenWithoutSessionFails) {
  EXPECT_FALSE(DurableSession::Open(dir_ + "/nothing-here").ok());
}

// The acceptance-criteria test: for every registered algorithm kind, kill
// the session between the WAL append of the tail and the next snapshot;
// recovery = snapshot + WAL tail replay must be bit-identical to an
// uninterrupted run over the same stream.
TEST_F(DurableSessionTest, CrashRecoveryBitIdenticalForEveryKind) {
  const Dataset ds2 = TestData(2);
  const Dataset ds3 = TestData(3, 150, 33);
  struct Case {
    const Dataset* data;
    std::string spec;
  };
  const std::vector<Case> cases = {
      {&ds2, "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds2)},
      {&ds2, "algo=sfdm1 dim=2 quotas=2,2" + BoundsSuffix(ds2)},
      {&ds3, "algo=sfdm2 dim=2 quotas=2,1,2" + BoundsSuffix(ds3)},
      {&ds2, "algo=adaptive dim=2 k=4"},
      {&ds2, "algo=sharded dim=2 k=4 shards=3" + BoundsSuffix(ds2)},
      {&ds2, "algo=sliding_window dim=2 k=4 window=60 checkpoints=3" +
                 BoundsSuffix(ds2)},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].spec);
    const Dataset& ds = *cases[c].data;
    const std::string dir = dir_ + "/case" + std::to_string(c);

    // Uninterrupted reference run over the full stream.
    auto reference = MakeSinkFromSpec(cases[c].spec);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) {
      (*reference)->Observe(ds.At(i));
    }

    // Durable run: snapshot at the midpoint, then a WAL-only tail, then
    // the kill-point — the DurableSession object is dropped with records
    // appended to the WAL but NOT captured by any snapshot.
    {
      auto session = DurableSession::Create(dir, cases[c].spec);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      const size_t mid = ds.size() / 2;
      for (size_t i = 0; i < mid; ++i) {
        const StreamPoint pt = ds.At(i);
        ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
      }
      ASSERT_TRUE(session->TakeSnapshot().ok());
      for (size_t i = mid; i < ds.size(); ++i) {
        const StreamPoint pt = ds.At(i);
        ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
      }
      EXPECT_LT(session->SnapshotSeq(),
                static_cast<int64_t>(ds.size()));  // the tail is WAL-only
    }  // kill-point: no snapshot of the tail

    auto recovered = DurableSession::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectSameSolution(**reference, recovered->sink());
  }
}

TEST_F(DurableSessionTest, PowerLossTornTailRecoversToLastIntactRecord) {
  // Harder than the graceful kill above: after the process dies, the WAL's
  // final record is torn (power loss mid-write). Recovery must come back
  // bit-identical to an uninterrupted run over the stream MINUS the torn
  // record.
  const Dataset ds = TestData(2, 120, 39);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  {
    auto session = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
  }
  // Tear the newest segment's tail by a few bytes.
  std::string newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/wal")) {
    const std::string path = entry.path().string();
    if (path > newest) newest = path;
  }
  ASSERT_FALSE(newest.empty());
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) - 3);

  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->ObservedElements(),
            static_cast<int64_t>(ds.size()) - 1);
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i + 1 < ds.size(); ++i) {
    (*reference)->Observe(ds.At(i));
  }
  ExpectSameSolution(**reference, recovered->sink());
}

// The admission rule: a session holds a point only when it has the
// spec's dimension and, for sfdm1/sfdm2, a group in 0..quotas.size()-1.
// Any other point fails its whole call with InvalidArgument before the
// dedup probe and the WAL, per element and batched alike: the sink does
// not move, the duplicate guard never learns the rejected ids (a corrected
// re-send is accepted), and a reopen recovers only the good records.
TEST_F(DurableSessionTest, RejectsWhatTheSpecCannotHoldBeforeTheWal) {
  const Dataset ds = TestData(2, 80, 41);
  std::vector<StreamPoint> points;
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  const std::vector<double> short_coords = {1.0};
  for (const std::string algo : {"sfdm1", "sfdm2"}) {
    SCOPED_TRACE(algo);
    const std::string dir = dir_ + "/" + algo;
    const std::string spec =
        "algo=" + algo + " dim=2 quotas=2,2 dedup=on" + BoundsSuffix(ds);
    {
      auto session = DurableSession::Create(dir, spec);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      const std::span<const StreamPoint> all(points);
      ASSERT_TRUE(session->Ingest(all.first(40), /*as_batch=*/true).ok());
      const uint64_t version = session->StateVersion();

      std::vector<StreamPoint> bad(4, points[40]);
      bad[0].coords = short_coords;
      bad[1].group = 2;
      bad[2].group = 7;
      bad[3].group = -1;
      for (const StreamPoint& point : bad) {
        auto one = session->Ingest({&point, 1}, /*as_batch=*/false);
        ASSERT_FALSE(one.ok());
        EXPECT_EQ(one.status().code(), StatusCode::kInvalidArgument);
      }
      std::vector<StreamPoint> batch(points.begin() + 40, points.end());
      for (const StreamPoint& point : {bad[0], bad[2]}) {
        batch[17] = point;
        auto batched = session->Ingest(batch, /*as_batch=*/true);
        ASSERT_FALSE(batched.ok());
        EXPECT_EQ(batched.status().code(), StatusCode::kInvalidArgument);
      }
      EXPECT_EQ(session->ObservedElements(), 40);
      EXPECT_EQ(session->StateVersion(), version);

      batch[17] = points[57];
      auto resent = session->Ingest(batch, /*as_batch=*/true);
      ASSERT_TRUE(resent.ok()) << resent.status().ToString();
      EXPECT_EQ(resent->accepted, 40);
      EXPECT_EQ(resent->duplicates, 0);
    }  // dropped without a snapshot: the reopen replays the whole WAL
    auto recovered = DurableSession::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    auto reference = MakeSinkFromSpec(spec);
    ASSERT_TRUE(reference.ok());
    for (const StreamPoint& point : points) (*reference)->Observe(point);
    ExpectSameSolution(**reference, recovered->sink());
    EXPECT_EQ(recovered->StateVersion(), (*reference)->StateVersion());
  }
}

// The unconstrained kinds ignore groups, even when the spec carries quotas.
TEST_F(DurableSessionTest, UnconstrainedKindsAcceptAnyGroup) {
  const Dataset ds = TestData(1, 20, 42);
  const std::vector<std::string> specs = {
      "algo=streaming_dm dim=2 k=3 quotas=2,2" + BoundsSuffix(ds),
      "algo=adaptive dim=2 k=3",
      "algo=sliding_window dim=2 k=3 window=10" + BoundsSuffix(ds),
  };
  for (size_t c = 0; c < specs.size(); ++c) {
    SCOPED_TRACE(specs[c]);
    auto session = DurableSession::Create(dir_ + "/" + std::to_string(c),
                                          specs[c]);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    std::vector<StreamPoint> batch = {ds.At(0), ds.At(1)};
    batch[0].group = 7;
    batch[1].group = -1;
    ASSERT_TRUE(session->Ingest({&batch[0], 1}, /*as_batch=*/false).ok());
    ASSERT_TRUE(session->Ingest(batch, /*as_batch=*/true).ok());
    EXPECT_EQ(session->ObservedElements(), 3);
  }
}

// OBSERVE and OBSERVEB differ only in how the sink applies points: one
// stream fed per element and in 32-point batches leaves byte-identical WAL
// segments, sink snapshot bytes and state versions. Both paths count
// kept_total in one unit, the sink's `ObserveBatch` mutation count (a
// one-point batch per OBSERVE), so the two totals agree; ingest_batches
// counts batch calls only.
TEST_F(DurableSessionTest, PerElementAndBatchedIngestWriteTheSameLog) {
  const Dataset ds = TestData(2, 150, 43);
  const std::vector<std::string> specs = {
      "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds),
      "algo=sfdm1 dim=2 quotas=2,2" + BoundsSuffix(ds),
      "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds),
      "algo=sharded dim=2 k=4 shards=3" + BoundsSuffix(ds),
      "algo=adaptive dim=2 k=4",
      "algo=sliding_window dim=2 k=4 window=60" + BoundsSuffix(ds),
  };
  std::vector<StreamPoint> points;
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  const std::span<const StreamPoint> all(points);
  for (size_t c = 0; c < specs.size(); ++c) {
    SCOPED_TRACE(specs[c]);
    const std::string element_dir = dir_ + "/element" + std::to_string(c);
    const std::string batched_dir = dir_ + "/batched" + std::to_string(c);
    auto element = DurableSession::Create(element_dir, specs[c]);
    auto batched = DurableSession::Create(batched_dir, specs[c]);
    auto element_ref = MakeSinkFromSpec(specs[c]);
    auto batched_ref = MakeSinkFromSpec(specs[c]);
    ASSERT_TRUE(element.ok() && batched.ok());
    ASSERT_TRUE(element_ref.ok() && batched_ref.ok());
    int64_t element_kept = 0;
    for (const StreamPoint& point : points) {
      ASSERT_TRUE(element->Ingest({&point, 1}, /*as_batch=*/false).ok());
      element_kept +=
          static_cast<int64_t>((*element_ref)->ObserveBatch({&point, 1}));
    }
    int64_t batched_kept = 0;
    int64_t batch_calls = 0;
    for (size_t at = 0; at < points.size(); at += 32) {
      const auto chunk = all.subspan(at, std::min<size_t>(32, all.size() - at));
      ASSERT_TRUE(batched->Ingest(chunk, /*as_batch=*/true).ok());
      batched_kept += static_cast<int64_t>((*batched_ref)->ObserveBatch(chunk));
      ++batch_calls;
    }
    ASSERT_TRUE(element->Sync().ok());
    ASSERT_TRUE(batched->Sync().ok());
    EXPECT_EQ(WalSegments(element_dir), WalSegments(batched_dir));
    EXPECT_EQ(SinkBytes(element->sink()), SinkBytes(batched->sink()));
    EXPECT_EQ(element->StateVersion(), batched->StateVersion());
    EXPECT_EQ(element->IngestCounters().kept_total, element_kept);
    EXPECT_EQ(batched->IngestCounters().kept_total, batched_kept);
    EXPECT_EQ(element_kept, batched_kept);
    EXPECT_EQ(element->IngestCounters().ingest_batches, 0);
    EXPECT_EQ(batched->IngestCounters().ingest_batches, batch_calls);
  }
}

// The admission rule holds on the way back out of the log too: a WAL
// record whose group lies outside the spec's quotas (written by a build
// that did not check, here straight through `AppendBatch`) fails recovery
// with an error naming its seq, and a manager touching the session answers
// an error, instead of the sink aborting the process.
TEST_F(DurableSessionTest, ReplayRejectsARecordTheSpecCannotHold) {
  const Dataset ds = TestData(2, 20, 45);
  const std::string dir = dir_ + "/s";
  {
    auto session = DurableSession::Create(
        dir, "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds));
    ASSERT_TRUE(session.ok());
    std::vector<StreamPoint> points;
    for (size_t i = 0; i < 10; ++i) points.push_back(ds.At(i));
    ASSERT_TRUE(session->Ingest(points, /*as_batch=*/true).ok());
    ASSERT_TRUE(session->Sync().ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->last_seq(), 10);
    const std::vector<double> coords = {0.5, 0.25};
    const StreamPoint bad{99, 7, coords};
    ASSERT_TRUE(wal->AppendBatch({&bad, 1}).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto reopened = DurableSession::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIoError);
  EXPECT_NE(reopened.status().message().find("seq 11"), std::string::npos)
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("group 7"), std::string::npos)
      << reopened.status().ToString();

  SessionManagerOptions options;
  options.root_dir = dir_;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EXPECT_FALSE((*manager)->Solve("s").ok());
}

// A call with no point to apply is a complete no-op on a dedup=off
// session too: no WAL call, no batch counted, no version bump.
TEST_F(DurableSessionTest, EmptyIngestIsANoOp) {
  const Dataset ds = TestData(2, 40, 44);
  auto session = DurableSession::Create(
      dir_, "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds));
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint point = ds.At(i);
    ASSERT_TRUE(session->Ingest({&point, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(session->Sync().ok());
  const std::vector<std::string> wal = WalSegments(dir_);
  const uint64_t version = session->StateVersion();
  const SessionIngestCounters before = session->IngestCounters();
  for (const bool as_batch : {true, false}) {
    auto outcome = session->Ingest({}, as_batch);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->accepted, 0);
    EXPECT_EQ(outcome->duplicates, 0);
  }
  ASSERT_TRUE(session->Sync().ok());
  EXPECT_EQ(WalSegments(dir_), wal);
  EXPECT_EQ(session->StateVersion(), version);
  EXPECT_EQ(session->IngestCounters().ingest_batches, before.ingest_batches);
  EXPECT_EQ(session->IngestCounters().kept_total, before.kept_total);
}

TEST_F(DurableSessionTest, RecoveryFallsBackWhenNewestSnapshotIsCorrupt) {
  const Dataset ds = TestData(1);
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  {
    auto session = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(session->TakeSnapshot().ok());
  }
  // Corrupt the (only) snapshot file: recovery must fall back to a fresh
  // sink + full WAL replay and still reach the same state.
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/snap")) {
    std::filesystem::resize_file(
        entry.path(), std::filesystem::file_size(entry.path()) / 2);
  }
  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < ds.size(); ++i) (*reference)->Observe(ds.At(i));
  ExpectSameSolution(**reference, recovered->sink());
}

TEST_F(DurableSessionTest, FallbackToOlderSnapshotAfterNewestCorrupts) {
  // Two snapshots are retained (keep_snapshots = 2). The WAL must keep
  // everything after the OLDEST retained snapshot, so that when the
  // newest snapshot fails its checksum, recovery rolls forward from the
  // older one across the full gap — even with segment rotation pruning in
  // between.
  const Dataset ds = TestData(1, 300, 37);
  DurableSessionOptions options;
  options.wal.segment_bytes = 2048;  // rotation makes pruning real
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  {
    auto session = DurableSession::Create(dir_, spec, options);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      (*reference)->Observe(ds.At(i));
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
      if (i + 1 == 100 || i + 1 == 200) {
        ASSERT_TRUE(session->TakeSnapshot().ok());
      }
    }
  }
  // Corrupt the newest snapshot (largest seq; zero-padded names sort).
  std::string newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/snap")) {
    const std::string path = entry.path().string();
    if (path > newest) newest = path;
  }
  ASSERT_FALSE(newest.empty());
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) / 2);

  auto recovered = DurableSession::Open(dir_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->SnapshotSeq(), 100);  // the older snapshot won
  ExpectSameSolution(**reference, recovered->sink());
}

TEST_F(DurableSessionTest, AutoSnapshotHonorsCadence) {
  const Dataset ds = TestData(1);
  DurableSessionOptions options;
  options.snapshot_every = 40;
  const std::string spec = "algo=streaming_dm dim=2 k=3" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < 100; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  // 100 observations at cadence 40 → snapshots at 40 and 80.
  EXPECT_EQ(session->SnapshotSeq(), 80);
  EXPECT_EQ(session->UnsnapshottedRecords(), 20);
}

TEST_F(DurableSessionTest, SnapshotPrunesWalSegments) {
  const Dataset ds = TestData(1, 400, 35);
  DurableSessionOptions options;
  options.wal.segment_bytes = 2048;  // force rotations
  const std::string spec = "algo=streaming_dm dim=2 k=3" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  size_t segments_before = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/wal")) {
    ++segments_before;
  }
  ASSERT_GT(segments_before, 2u);
  ASSERT_TRUE(session->TakeSnapshot().ok());
  size_t segments_after = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/wal")) {
    ++segments_after;
  }
  // The snapshot covers the whole log; only the active segment survives.
  EXPECT_EQ(segments_after, 1u);
}

}  // namespace
}  // namespace fdm
