// The read-replica acceptance suite: followers bootstrapped from snapshots
// and WAL tails must serve bit-identical solutions at matched state
// versions — under deterministic fault injection (kill/restart at every
// segment boundary and at torn mid-segment points), under live staleness
// (a follower never runs ahead of the primary, lag is monotone during
// catch-up, stale answers are flagged), and under pruning races (the
// primary deletes snapshots/segments while a follower is mid-bootstrap).

#include "replica/replica_session.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fault_inject.h"
#include "replica/replica_manager.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"

namespace fdm {
namespace {

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_replica_test_" +
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

void ExpectSameSolution(const StreamSink& a, const StreamSink& b) {
  ASSERT_EQ(a.ObservedElements(), b.ObservedElements());
  ASSERT_EQ(a.StoredElements(), b.StoredElements());
  EXPECT_EQ(a.StateVersion(), b.StateVersion());
  const auto sa = a.Solve();
  const auto sb = b.Solve();
  ASSERT_EQ(sa.ok(), sb.ok());
  if (!sa.ok()) return;
  EXPECT_EQ(sa->Ids(), sb->Ids());
  EXPECT_DOUBLE_EQ(sa->diversity, sb->diversity);
  EXPECT_DOUBLE_EQ(sa->mu, sb->mu);
}

/// Builds a durable primary over `ds` with small WAL segments (many
/// boundaries), a midpoint snapshot, and a WAL-only tail; everything
/// synced so the whole stream is fetchable.
Result<DurableSession> MakePrimary(const std::string& dir,
                                   const std::string& spec,
                                   const Dataset& ds,
                                   size_t keep_snapshots = 2) {
  DurableSessionOptions options;
  options.wal.segment_bytes = 1024;
  options.keep_snapshots = keep_snapshots;
  auto primary = DurableSession::Create(dir, spec, options);
  if (!primary.ok()) return primary.status();
  const size_t mid = ds.size() / 2;
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    if (Status s = primary->Ingest({&pt, 1}, /*as_batch=*/false).status();
        !s.ok()) {
      return s;
    }
    if (i + 1 == mid) {
      if (Status s = primary->TakeSnapshot(); !s.ok()) return s;
    }
  }
  if (Status s = primary->Sync(); !s.ok()) return s;
  return primary;
}

// The acceptance-criteria suite: for every registered sink kind, kill the
// follower at every WAL-segment boundary and at a torn mid-segment point
// in every segment; at each kill point the follower must be bit-identical
// (solution + state version) to a per-element reference over the same
// prefix, and after restart it must catch up to the primary bit-exactly.
TEST_F(ReplicaTest, KillRestartBitIdenticalAtEveryBoundaryForEveryKind) {
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
    auto primary = MakePrimary(dir, cases[c].spec, ds);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();

    auto base = std::make_shared<DirReplicationSource>(dir);
    auto manifest = base->GetManifest();
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_EQ(manifest->primary_seq, static_cast<int64_t>(ds.size()));
    ASSERT_GT(manifest->segments.size(), 3u);  // boundaries are plentiful

    // Kill points: every segment boundary (the last record of each sealed
    // segment), a mid-segment point in every segment (applied with a torn
    // tail), and the full stream.
    struct KillPoint {
      int64_t seq;
      bool torn;
    };
    std::vector<KillPoint> kill_points;
    for (size_t s = 1; s < manifest->segments.size(); ++s) {
      kill_points.push_back({manifest->segments[s].first_seq - 1, false});
      kill_points.push_back({manifest->segments[s].first_seq, true});
    }
    kill_points.push_back({manifest->primary_seq, false});
    // Positions below the snapshot are gone from the log by design (the
    // midpoint snapshot pruned them), so no follower can be *at* them —
    // the surviving boundaries all sit at or past the snapshot.
    std::erase_if(kill_points, [&](const KillPoint& k) {
      return k.seq < primary->SnapshotSeq();
    });
    ASSERT_GT(kill_points.size(), 4u);
    std::sort(kill_points.begin(), kill_points.end(),
              [](const KillPoint& a, const KillPoint& b) {
                return a.seq < b.seq;
              });

    // One per-element reference sink, advanced incrementally: the follower
    // at kill point P must match the reference fed exactly P elements.
    auto reference = MakeSinkFromSpec(cases[c].spec);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    int64_t reference_fed = 0;

    int ranged_kill_points = 0;
    for (const KillPoint& kill : kill_points) {
      SCOPED_TRACE("kill at seq " + std::to_string(kill.seq) +
                   (kill.torn ? " (torn tail)" : ""));
      while (reference_fed < kill.seq) {
        (*reference)->Observe(ds.At(static_cast<size_t>(reference_fed)));
        ++reference_fed;
      }

      auto fault = std::make_shared<FaultInjectingSource>(base);
      fault->SetMaxVisibleSeq(kill.seq);
      if (kill.torn) fault->SetTornTailBytes(7);
      auto follower = ReplicaSession::Bootstrap(fault);
      ASSERT_TRUE(follower.ok()) << follower.status().ToString();
      EXPECT_EQ(follower->applied_seq(), kill.seq);
      ExpectSameSolution(**reference, follower->sink());
      EXPECT_EQ(follower->Stats().lag, 0);  // caught up with the capped view

      // Still frozen: a follower whose position sits in a visible segment
      // now holds an offset into it, so the next poll asks only for the
      // bytes past its last record — nothing intact (at most the torn
      // tail) — and stays put.
      const int64_t ranged_before = fault->ranged_fetches();
      auto idle = follower->Poll();
      ASSERT_TRUE(idle.ok()) << idle.status().ToString();
      EXPECT_EQ(*idle, 0);
      if (manifest->segments.front().first_seq <= kill.seq) {
        EXPECT_GT(fault->ranged_fetches(), ranged_before);
        ++ranged_kill_points;
      }
      ExpectSameSolution(**reference, follower->sink());
      EXPECT_EQ(follower->Stats().stale_manifest_retries, 0u);

      // Restart: the fault clears and the follower tails the rest, from
      // its offset on.
      fault->SetMaxVisibleSeq(-1);
      fault->SetTornTailBytes(0);
      auto caught_up = follower->Poll();
      ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
      EXPECT_EQ(*caught_up,
                static_cast<int64_t>(ds.size()) - kill.seq);
      ExpectSameSolution(primary->sink(), follower->sink());
      EXPECT_EQ(follower->Stats().lag, 0);
      EXPECT_EQ(follower->Stats().stale_manifest_retries, 0u);
    }
    EXPECT_GT(ranged_kill_points, 4);

    // Cold restart over the healthy source converges identically too.
    auto cold = ReplicaSession::Bootstrap(base);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ExpectSameSolution(primary->sink(), cold->sink());
    // The advert was published by Sync at the full position: a follower at
    // that position must sit at exactly the advertised version.
    const auto stats = cold->Stats();
    EXPECT_EQ(stats.advert_seq, static_cast<int64_t>(ds.size()));
    EXPECT_EQ(stats.primary_version, cold->StateVersion());
  }
}

// The staleness contract: while the primary ingests, a follower never
// serves a solution whose state version exceeds the primary's, LAG is
// monotone non-increasing during catch-up, and a stale SOLVE is flagged.
TEST_F(ReplicaTest, StalenessFlaggedAndLagMonotoneDuringCatchUp) {
  const Dataset ds = TestData(2, 600, 35);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  DurableSessionOptions options;
  options.wal.segment_bytes = 1024;
  auto primary = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  const size_t head = 150;
  for (size_t i = 0; i < head; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());

  ReplicaOptions bounded;
  bounded.max_records_per_poll = 64;  // catch-up in observable steps
  auto follower = ReplicaSession::Bootstrap(
      std::make_shared<DirReplicationSource>(dir_), bounded);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  // The bounded bootstrap may still be mid-tail; finish catching up first.
  for (int i = 0; i < 100 && follower->Stats().lag > 0; ++i) {
    ASSERT_TRUE(follower->Poll().ok());
  }
  EXPECT_EQ(follower->applied_seq(), static_cast<int64_t>(head));
  EXPECT_FALSE(follower->Stats().stale);
  EXPECT_EQ(follower->StateVersion(), primary->StateVersion());

  // Primary moves on; the follower only refreshes its manifest view.
  for (size_t i = head; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    if ((i + 1) % 150 == 0) {
      ASSERT_TRUE(primary->Sync().ok());
      ASSERT_TRUE(follower->RefreshLag().ok());
      const auto stats = follower->Stats();
      EXPECT_EQ(stats.lag,
                static_cast<int64_t>(i + 1) - static_cast<int64_t>(head));
      EXPECT_TRUE(stats.stale);  // flagged, not silently wrong
      EXPECT_LE(follower->StateVersion(), primary->StateVersion());
      // A stale SOLVE still answers — correctly for its own position.
      EXPECT_TRUE(follower->Solve().ok());
      EXPECT_EQ(follower->applied_seq(), static_cast<int64_t>(head));
    }
  }
  ASSERT_TRUE(primary->Sync().ok());

  // Catch-up: lag must shrink monotonically to zero, with the follower's
  // version never passing the primary's.
  ASSERT_TRUE(follower->RefreshLag().ok());
  int64_t prev_lag = follower->Stats().lag;
  ASSERT_GT(prev_lag, 0);
  for (int i = 0; i < 1000 && follower->Stats().lag > 0; ++i) {
    auto applied = follower->Poll();
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    const auto stats = follower->Stats();
    EXPECT_LE(stats.lag, prev_lag);
    EXPECT_LE(stats.state_version, primary->StateVersion());
    prev_lag = stats.lag;
  }
  const auto stats = follower->Stats();
  EXPECT_EQ(stats.lag, 0);
  EXPECT_FALSE(stats.stale);
  // At the advertised position the versions must agree exactly — the
  // determinism cross-check the advert exists for.
  EXPECT_EQ(stats.advert_seq, follower->applied_seq());
  EXPECT_EQ(stats.primary_version, follower->StateVersion());
  ExpectSameSolution(primary->sink(), follower->sink());
}

// Pruning race, bootstrap flavor: the follower holds a manifest listing a
// snapshot and segments the primary prunes before the fetches land. The
// follower must fall back to the next manifest and converge bit-exactly.
TEST_F(ReplicaTest, SnapshotPrunedMidBootstrapFallsBackToNextManifest) {
  const Dataset ds = TestData(2, 400, 39);
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  DurableSessionOptions options;
  options.wal.segment_bytes = 1024;
  options.keep_snapshots = 1;  // pruning is aggressive
  auto primary = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  for (size_t i = 0; i < 120; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->TakeSnapshot().ok());
  for (size_t i = 120; i < 260; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());

  // The follower grabs its manifest now ...
  auto base = std::make_shared<DirReplicationSource>(dir_);
  auto stale_manifest = base->GetManifest();
  ASSERT_TRUE(stale_manifest.ok());
  ASSERT_EQ(stale_manifest->snapshots.size(), 1u);
  ASSERT_EQ(stale_manifest->snapshots[0].seq, 120);

  // ... and the primary prunes everything it lists before the fetches run:
  // the new snapshot at 400 supersedes the one at 120 (keep_snapshots=1)
  // and truncates the WAL segments below it.
  for (size_t i = 260; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->TakeSnapshot().ok());
  ASSERT_FALSE(std::filesystem::exists(
      dir_ + "/snap/snap-00000000000000000120.snap"));

  auto fault = std::make_shared<FaultInjectingSource>(base);
  fault->QueueManifest(std::move(stale_manifest.value()));
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  EXPECT_GE(follower->Stats().resyncs, 1u);
  ExpectSameSolution(primary->sink(), follower->sink());
}

// Pruning race, tail flavor: a caught-up follower pauses, the primary
// snapshots and prunes the WAL range the follower would need next; the
// next poll must re-sync from the newer snapshot instead of failing or —
// worse — serving quietly forever at the old position.
TEST_F(ReplicaTest, PrunedTailForcesResyncOnPoll) {
  const Dataset ds = TestData(2, 500, 41);
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  DurableSessionOptions options;
  options.wal.segment_bytes = 1024;
  options.keep_snapshots = 1;
  auto primary = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  for (size_t i = 0; i < 200; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());

  auto follower = ReplicaSession::Bootstrap(
      std::make_shared<DirReplicationSource>(dir_));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_EQ(follower->applied_seq(), 200);

  // Primary advances far enough that rotation + snapshot pruning delete
  // the segments holding records 201..; the follower's position is gone.
  for (size_t i = 200; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->TakeSnapshot().ok());

  auto applied = follower->Poll();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(follower->Stats().resyncs, 1u);
  EXPECT_EQ(follower->Stats().lag, 0);
  ExpectSameSolution(primary->sink(), follower->sink());
}

// The advert determinism cross-check: when the primary's durable log is
// rewritten under the same sequence numbers (the power-loss scenario — an
// unfsynced tail is lost and different points take its seqs), a follower
// that applied the old tail must detect the version mismatch at the
// advertised position and rebuild from scratch, instead of serving
// divergent answers flagged fresh.
TEST_F(ReplicaTest, RewrittenLogForcesDivergenceRebuild) {
  const Dataset ds = TestData(2, 80, 47);
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  {
    auto primary = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(primary.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(primary->Sync().ok());
  }
  auto fault = std::make_shared<FaultInjectingSource>(
      std::make_shared<DirReplicationSource>(dir_));
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  const uint64_t old_version = follower->StateVersion();

  // Rewrite history: same spec, same number of records, different points
  // (constant duplicates — almost no state mutations, so the version at
  // the same position provably differs).
  std::filesystem::remove_all(dir_);
  auto rewritten = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(rewritten.ok());
  const std::vector<double> constant = {1.0, 1.0};
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt{static_cast<int64_t>(i), 0, constant};
    ASSERT_TRUE(rewritten->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(rewritten->Sync().ok());
  ASSERT_NE(rewritten->StateVersion(), old_version);

  // The follower holds an offset into the log (the rewritten segment has
  // the same name and size, and the manifest lists no record past the
  // follower's position, so it reads as an idle poll that fetches no
  // range) and only the version check exposes the rewrite. The rebuild
  // must drop the offset: its tail is refetched from byte 0 without a
  // detour through the stale-manifest path, which an offset into the old
  // log would have forced.
  auto polled = follower->Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_GE(follower->Stats().divergence_rebuilds, 1u);
  EXPECT_EQ(fault->ranged_fetches(), 0);
  EXPECT_EQ(fault->last_fetch_offset(), 0u);
  EXPECT_EQ(follower->Stats().stale_manifest_retries, 0u);
  ExpectSameSolution(rewritten->sink(), follower->sink());
}

// A SPEC that does not parse fails both restore paths before any snapshot
// is read: `Open` with the spec's own error, and a follower's bootstrap
// before it fetches a snapshot or a WAL segment.
TEST_F(ReplicaTest, UnparsableSpecFailsBeforeAnySnapshotIsRead) {
  const Dataset ds = TestData(2, 60, 31);
  {
    auto primary = MakePrimary(
        dir_, "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds), ds);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  }
  std::ofstream(SessionSpecPath(dir_)) << "algo=streaming_dm dim=2 k=x\n";
  auto opened = DurableSession::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();

  auto fault = std::make_shared<FaultInjectingSource>(
      std::make_shared<DirReplicationSource>(dir_));
  auto manifest = fault->GetManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_FALSE(manifest->snapshots.empty());
  for (const auto& snapshot : manifest->snapshots) {
    fault->FailSnapshot(snapshot.seq);
  }
  for (const auto& segment : manifest->segments) {
    fault->FailSegment(segment.first_seq);
  }
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_FALSE(follower.ok());
  EXPECT_EQ(follower.status().code(), StatusCode::kInvalidArgument)
      << follower.status().ToString();
  EXPECT_EQ(fault->forced_failures(), 0);  // nothing was fetched
}

// The same rebuild under dedup=on drops the diverged history's duplicate
// guard with its sink. Each history re-sends some ids (rejected, counted in
// its snapshot's dedup footer); the rewrite uses other ids. After the
// rebuild the follower's rejection count, guard structure and membership
// are the rewritten primary's, and it knows none of the lost history's ids.
TEST_F(ReplicaTest, DivergenceRebuildDropsTheLostHistorysGuard) {
  const Dataset ds = TestData(2, 80, 47);
  const std::string spec =
      "algo=streaming_dm dim=2 k=4 dedup=on" + BoundsSuffix(ds);
  const size_t n = ds.size();
  // Sends `points(i)` for i < n; at n/2 re-sends the first `resent` of
  // them, which the guard rejects, then snapshots.
  const auto write_history = [&](const auto& points, int64_t resent,
                                 DurableSession& primary) {
    for (size_t i = 0; i < n; ++i) {
      const StreamPoint pt = points(i);
      ASSERT_TRUE(primary.Ingest({&pt, 1}, /*as_batch=*/false).ok());
      if (i + 1 != n / 2) continue;
      for (int64_t d = 0; d < resent; ++d) {
        const StreamPoint again = points(static_cast<size_t>(d));
        auto outcome = primary.Ingest({&again, 1}, /*as_batch=*/false);
        ASSERT_TRUE(outcome.ok());
        ASSERT_EQ(outcome->duplicates, 1);
      }
      ASSERT_TRUE(primary.TakeSnapshot().ok());
    }
    ASSERT_TRUE(primary.Sync().ok());
  };
  {
    auto primary = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    write_history([&](size_t i) { return ds.At(i); }, 10, *primary);
  }
  auto fault = std::make_shared<FaultInjectingSource>(
      std::make_shared<DirReplicationSource>(dir_));
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_EQ(follower->Stats().duplicates_rejected, 10);
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(follower->KnownId(ds.At(i).id));
  const uint64_t old_version = follower->StateVersion();

  // Same spec, same record count, other ids, constant points.
  std::filesystem::remove_all(dir_);
  auto rewritten = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  constexpr int64_t kBase = 1000;
  const std::vector<double> constant = {1.0, 1.0};
  write_history(
      [&](size_t i) {
        return StreamPoint{kBase + static_cast<int64_t>(i), 0, constant};
      },
      5, *rewritten);
  ASSERT_NE(rewritten->StateVersion(), old_version);

  auto polled = follower->Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  const auto stats = follower->Stats();
  EXPECT_GE(stats.divergence_rebuilds, 1u);
  ExpectSameSolution(rewritten->sink(), follower->sink());
  EXPECT_EQ(stats.duplicates_rejected, 5);
  EXPECT_EQ(stats.duplicates_rejected, rewritten->DuplicatesRejected());
  EXPECT_EQ(stats.filter_bytes, rewritten->dedup_filter()->MemoryBytes());
  EXPECT_EQ(stats.filter_grows, rewritten->dedup_filter()->Grows());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(follower->KnownId(kBase + static_cast<int64_t>(i))) << i;
    EXPECT_FALSE(follower->KnownId(ds.At(i).id)) << ds.At(i).id;
  }
}

// What a follower pays per new record: tailing a live primary in many
// small polls, each poll fetches only the records it has not applied (a
// ranged fetch from its offset), so the bytes fetched stay within 1.2x the
// records' own WAL bytes — instead of growing with every re-ship of the
// active segment. `Stats().fetched_bytes` is session bookkeeping, so this
// holds in FDM_NO_METRICS builds too.
TEST_F(ReplicaTest, FetchedBytesGrowInProportionToNewRecords) {
  const Dataset ds = TestData(2, 600, 59);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  DurableSessionOptions options;
  options.wal.segment_bytes = 4096;  // a few rotations mid-stream
  auto primary = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  ASSERT_TRUE(primary->Sync().ok());

  auto follower = ReplicaSession::Bootstrap(
      std::make_shared<DirReplicationSource>(dir_));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  constexpr size_t kPerPoll = 4;
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    if ((i + 1) % kPerPoll == 0) {
      ASSERT_TRUE(primary->Sync().ok());
      auto applied = follower->Poll();
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ASSERT_EQ(*applied, static_cast<int64_t>(kPerPoll));
    }
  }
  const auto stats = follower->Stats();
  ASSERT_EQ(stats.applied_seq, static_cast<int64_t>(ds.size()));
  EXPECT_EQ(stats.stale_manifest_retries, 0u);
  // WAL framing: u32 length | seq, id, group, dim (24 B) | coords | u64
  // checksum.
  const uint64_t record_bytes = 4 + 24 + 8 * ds.dim() + 8;
  EXPECT_LE(static_cast<double>(stats.fetched_bytes),
            1.2 * static_cast<double>(ds.size() * record_bytes))
      << stats.fetched_bytes << " bytes fetched for " << ds.size()
      << " records of " << record_bytes << " bytes";
  ExpectSameSolution(primary->sink(), follower->sink());
}

// A caught-up follower of an idle primary asks for the manifest only: the
// newest segment is listed at exactly its fetch offset, so a WAL fetch
// could only come back empty. The first poll after new records fetches
// once, from that offset.
TEST_F(ReplicaTest, IdlePollsFetchTheManifestOnly) {
  const Dataset ds = TestData(2, 200, 71);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  auto primary = DurableSession::Create(dir_, spec, DurableSessionOptions{});
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  const size_t head = 150;
  for (size_t i = 0; i < head; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());

  auto source = std::make_shared<FaultInjectingSource>(
      std::make_shared<DirReplicationSource>(dir_));
  auto follower = ReplicaSession::Bootstrap(source);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_EQ(follower->applied_seq(), static_cast<int64_t>(head));

  const auto before = follower->Stats();
  const int64_t manifests_before = source->manifest_fetches();
  constexpr int kIdlePolls = 5;
  for (int poll = 0; poll < kIdlePolls; ++poll) {
    auto applied = follower->Poll();
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, 0);
  }
  EXPECT_EQ(source->manifest_fetches() - manifests_before, kIdlePolls);
  EXPECT_EQ(follower->Stats().segments_fetched, before.segments_fetched);
  EXPECT_EQ(follower->Stats().fetched_bytes, before.fetched_bytes);
  EXPECT_EQ(follower->Stats().lag, 0);

  for (size_t i = head; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());
  const int64_t ranged_before = source->ranged_fetches();
  auto caught_up = follower->Poll();
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_EQ(*caught_up, static_cast<int64_t>(ds.size() - head));
  EXPECT_EQ(follower->Stats().segments_fetched, before.segments_fetched + 1);
  EXPECT_EQ(source->ranged_fetches(), ranged_before + 1);
  ExpectSameSolution(primary->sink(), follower->sink());
}

// A follower checks shipped records against the spec as recovery does: a
// record outside the quotas fails the poll (and a fresh bootstrap) with an
// error instead of aborting in the sink.
TEST_F(ReplicaTest, FollowerRejectsARecordTheSpecCannotHold) {
  const Dataset ds = TestData(2, 30, 67);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  {
    auto primary = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    std::vector<StreamPoint> points;
    for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
    ASSERT_TRUE(primary->Ingest(points, /*as_batch=*/true).ok());
    ASSERT_TRUE(primary->Sync().ok());
  }
  auto follower = ReplicaSession::Bootstrap(
      std::make_shared<DirReplicationSource>(dir_));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  EXPECT_EQ(follower->Stats().applied_seq,
            static_cast<int64_t>(ds.size()));
  {
    auto wal = WriteAheadLog::Open(SessionWalDir(dir_));
    ASSERT_TRUE(wal.ok());
    const std::vector<double> coords = {0.5, 0.25};
    const StreamPoint bad{999, 7, coords};
    ASSERT_TRUE(wal->AppendBatch({&bad, 1}).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto polled = follower->Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_NE(polled.status().message().find("group 7"), std::string::npos)
      << polled.status().ToString();
  EXPECT_EQ(follower->Stats().applied_seq,
            static_cast<int64_t>(ds.size()));
  EXPECT_FALSE(ReplicaSession::Bootstrap(
                   std::make_shared<DirReplicationSource>(dir_))
                   .ok());
}

// A ranged fetch that does not resume at the follower's next record —
// its offset lands past the end of the file, back on an applied record,
// or mid-record — takes the stale-manifest path: the offset is dropped,
// the segment refetched from byte 0, and the follower stays bit-identical.
TEST_F(ReplicaTest, BadRangedFetchRefetchesFromZero) {
  const Dataset ds = TestData(2, 250, 61);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  auto primary = DurableSession::Create(dir_, spec);  // one segment
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  for (size_t i = 0; i < 50; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());
  auto fault = std::make_shared<FaultInjectingSource>(
      std::make_shared<DirReplicationSource>(dir_));
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  const int64_t record_bytes = 4 + 24 + 8 * 2 + 8;  // see above
  const struct {
    const char* what;
    int64_t skew;
  } cases[] = {
      {"offset past end of file", int64_t{1} << 30},
      {"first record already applied", -record_bytes},
      {"offset mid-record", -3},
  };
  size_t fed = 50;
  uint64_t retries = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    for (const size_t end = fed + 50; fed < end; ++fed) {
      const StreamPoint pt = ds.At(fed);
      ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(primary->Sync().ok());
    const int64_t ranged_before = fault->ranged_fetches();
    fault->SkewNextRangedFetch(c.skew);
    auto applied = follower->Poll();
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, 50);
    EXPECT_EQ(fault->ranged_fetches(), ranged_before + 1);  // the bad one
    EXPECT_EQ(fault->last_fetch_offset(), 0u);              // the refetch
    EXPECT_EQ(follower->Stats().stale_manifest_retries, ++retries);
    ExpectSameSolution(primary->sink(), follower->sink());
  }
  // With the fault gone, the next poll is ranged again and needs no retry.
  for (; fed < ds.size(); ++fed) {
    const StreamPoint pt = ds.At(fed);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());
  auto applied = follower->Poll();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 50);
  EXPECT_NE(fault->last_fetch_offset(), 0u);
  EXPECT_EQ(follower->Stats().stale_manifest_retries, retries);
  ExpectSameSolution(primary->sink(), follower->sink());
}

// A ranged fetch of a sealed segment must end exactly at the size the
// manifest lists. A ship cut short on a record boundary holds only intact
// records, so without that check the follower would stop short of the
// next segment and fall back to a snapshot re-sync; with it, the segment
// is refetched from byte 0.
TEST_F(ReplicaTest, ShortRangedShipOfSealedSegmentRefetches) {
  const Dataset ds = TestData(2, 150, 67);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  DurableSessionOptions options;
  options.wal.segment_bytes = 4096;  // ~78 dim-2 records per segment
  auto primary = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  for (size_t i = 0; i < 10; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());
  auto fault = std::make_shared<FaultInjectingSource>(
      std::make_shared<DirReplicationSource>(dir_));
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_EQ(follower->Stats().applied_seq, 10);

  // Fill and seal the follower's segment, with records in the next one.
  for (size_t i = 10; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(primary->Sync().ok());
  auto manifest = DirReplicationSource(dir_).GetManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_GE(manifest->segments.size(), 2u);
  ASSERT_NE(manifest->segments.front().checksum, 0u);  // sealed

  fault->ShortenNextRangedFetch(4 + 24 + 8 * 2 + 8);  // one whole record
  auto applied = follower->Poll();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, static_cast<int64_t>(ds.size()) - 10);
  EXPECT_EQ(fault->ranged_fetches(), 1);
  EXPECT_EQ(follower->Stats().stale_manifest_retries, 1u);
  EXPECT_EQ(follower->Stats().resyncs, 0u);
  ExpectSameSolution(primary->sink(), follower->sink());
}

// The duplicate-replay storm: every manifest lists every WAL segment
// twice ([A,A,B,B,...]) — the view a flapping transport or a retrying
// shipper produces — while the follower is killed and restarted at
// mid-tail points. A correct follower skips every repeated record, stays
// bit-identical to the primary, never trips the divergence rebuild, and
// mirrors the primary's exactly-once surface (duplicates_rejected from
// the snapshot footer, filter membership re-taught by the tail).
TEST_F(ReplicaTest, DuplicateReplayStormStaysBitIdentical) {
  const Dataset ds = TestData(2, 200, 53);
  const std::string spec =
      "algo=sfdm2 dim=2 quotas=3,3 dedup=on" + BoundsSuffix(ds);

  DurableSessionOptions options;
  options.wal.segment_bytes = 1024;  // many segments, many repeats
  auto primary = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  const int64_t mid = static_cast<int64_t>(ds.size()) / 2;
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    if (i + 1 == 40) {
      // Re-observe a prefix: with dedup=on these are idempotent no-ops
      // (no WAL records), but the rejection count must ride the snapshot
      // footer to the follower.
      for (size_t d = 0; d < 20; ++d) {
        const StreamPoint pt = ds.At(d);
        ASSERT_TRUE(primary->Ingest({&pt, 1}, /*as_batch=*/false).ok());
      }
    }
    if (i + 1 == static_cast<size_t>(mid)) {
      ASSERT_TRUE(primary->TakeSnapshot().ok());
    }
  }
  ASSERT_TRUE(primary->Sync().ok());
  ASSERT_EQ(primary->DuplicatesRejected(), 20);
  // Duplicates are not WAL records: the stream position is exactly n.
  ASSERT_EQ(primary->ObservedElements(), static_cast<int64_t>(ds.size()));

  auto base = std::make_shared<DirReplicationSource>(dir_);
  auto fault = std::make_shared<FaultInjectingSource>(base);
  fault->SetSegmentReshipFactor(2);

  // Kill mid-storm: a follower frozen mid-tail sees every segment below
  // the cap twice, applies each record once, and dies (goes out of
  // scope) without ever having rebuilt.
  fault->SetMaxVisibleSeq(mid + 20);
  {
    auto killed = ReplicaSession::Bootstrap(fault);
    ASSERT_TRUE(killed.ok()) << killed.status().ToString();
    EXPECT_EQ(killed->applied_seq(), mid + 20);
    EXPECT_EQ(killed->Stats().divergence_rebuilds, 0u);
  }

  // Restart under the same storm, catch up in two stages (another
  // mid-storm stop between them), then all the way.
  fault->SetMaxVisibleSeq(mid + 40);
  auto follower = ReplicaSession::Bootstrap(fault);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  EXPECT_EQ(follower->applied_seq(), mid + 40);
  fault->SetMaxVisibleSeq(-1);
  auto polled = follower->Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(*polled, static_cast<int64_t>(ds.size()) - (mid + 40));

  ExpectSameSolution(primary->sink(), follower->sink());
  const auto stats = follower->Stats();
  EXPECT_EQ(stats.lag, 0);
  EXPECT_EQ(stats.divergence_rebuilds, 0u);
  EXPECT_TRUE(stats.dedup);
  EXPECT_EQ(stats.duplicates_rejected, 20);
  EXPECT_GT(stats.filter_bytes, 0u);
  // The mirror holds the primary's structure, not just its membership.
  EXPECT_EQ(stats.filter_bytes, primary->dedup_filter()->MemoryBytes());
  EXPECT_EQ(stats.filter_grows, primary->dedup_filter()->Grows());

  // The mirrored filter answers membership without replaying: the
  // snapshot footer taught it the first half, the (re-shipped) tail the
  // rest.
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(follower->KnownId(ds.At(i).id)) << "id " << ds.At(i).id;
  }
  EXPECT_FALSE(follower->KnownId(static_cast<int64_t>(ds.size()) + 7));
}

// The serving façade: a ReplicaManager mirrors every session under the
// primary root, discovers sessions created after it started, serves
// flagged solves, and rejects nothing it should serve.
TEST_F(ReplicaTest, ReplicaManagerMirrorsAPrimaryRoot) {
  const Dataset ds = TestData(2, 120, 43);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  const std::string root = dir_ + "/primary_root";

  SessionManagerOptions primary_options;
  primary_options.root_dir = root;
  auto primaries = SessionManager::Create(primary_options);
  ASSERT_TRUE(primaries.ok());
  for (const std::string name : {"alpha", "beta"}) {
    ASSERT_TRUE((*primaries)->CreateSession(name, spec).ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(
          (*primaries)->Ingest(name, {&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE((*primaries)->Snapshot(name).ok());  // durable + advertised
  }

  ReplicaManagerOptions options;
  options.primary_root = root;
  auto followers = ReplicaManager::Create(options);
  ASSERT_TRUE(followers.ok()) << followers.status().ToString();
  const auto names = (*followers)->SessionNames();
  ASSERT_EQ(names.size(), 2u);

  for (const std::string name : {"alpha", "beta"}) {
    auto solve = (*followers)->Solve(name);
    ASSERT_TRUE(solve.ok()) << solve.status().ToString();
    EXPECT_FALSE(solve->stale);
    EXPECT_EQ(solve->applied_seq, static_cast<int64_t>(ds.size()));
    auto primary_solution = (*primaries)->Solve(name);
    ASSERT_TRUE(primary_solution.ok());
    EXPECT_EQ(solve->solution.Ids(), primary_solution->Ids());
    EXPECT_DOUBLE_EQ(solve->solution.diversity,
                     primary_solution->diversity);
  }

  // A session created after the follower started appears on rescan.
  ASSERT_TRUE((*primaries)->CreateSession("gamma", spec).ok());
  const StreamPoint pt = ds.At(0);
  ASSERT_TRUE((*primaries)->Ingest("gamma", {&pt, 1}, /*as_batch=*/false).ok());
  ASSERT_TRUE((*primaries)->Snapshot("gamma").ok());
  EXPECT_EQ((*followers)->SessionNames().size(), 3u);
  auto gamma = (*followers)->Stats("gamma");
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  EXPECT_EQ(gamma->applied_seq, 1);
  EXPECT_EQ(gamma->lag, 0);
}

// With `poll_ms` set, a ReplicaManager catches up on its own: after the
// first touch bootstraps the follower, nothing but the background poll
// moves it.
TEST_F(ReplicaTest, ReplicaManagerPollsInTheBackground) {
  const Dataset ds = TestData(2, 120, 61);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  const std::string root = dir_ + "/primary_root";
  SessionManagerOptions primary_options;
  primary_options.root_dir = root;
  auto primaries = SessionManager::Create(primary_options);
  ASSERT_TRUE(primaries.ok());
  ASSERT_TRUE((*primaries)->CreateSession("live", spec).ok());
  ASSERT_TRUE((*primaries)->Snapshot("live").ok());

  ReplicaManagerOptions options;
  options.primary_root = root;
  options.poll_ms = 5;
  auto followers = ReplicaManager::Create(options);
  ASSERT_TRUE(followers.ok()) << followers.status().ToString();
  ASSERT_TRUE((*followers)->Stats("live").ok());

  std::vector<StreamPoint> points;
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  ASSERT_TRUE((*primaries)->Ingest("live", points, /*as_batch=*/true).ok());
  ASSERT_TRUE((*primaries)->Snapshot("live").ok());  // durable + advertised
  const int64_t n = static_cast<int64_t>(ds.size());
  int64_t applied = 0;
  for (int i = 0; i < 500 && applied != n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto stats = (*followers)->Stats("live");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    applied = stats->applied_seq;
  }
  ASSERT_EQ(applied, n);
  auto solve = (*followers)->Solve("live");
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_FALSE(solve->stale);
  auto primary_solution = (*primaries)->Solve("live");
  ASSERT_TRUE(primary_solution.ok());
  EXPECT_EQ(solve->solution.Ids(), primary_solution->Ids());
}

}  // namespace
}  // namespace fdm
