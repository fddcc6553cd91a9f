// The exactly-once ingest acceptance suite: with `dedup=on`, re-observing
// the entire stream — element path and batch path, for every registered
// sink kind — is an idempotent no-op: zero WAL growth, zero state-version
// change, bit-identical SOLVE, exact `duplicates_rejected`. The guard
// survives what production throws at a session: crash recovery over a
// snapshot + WAL tail, an LRU spill/reload cycle under SessionManager,
// and a spec migration onto a session whose snapshots predate the filter.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "service/dedup_filter.h"
#include "service/durable_session.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

class DedupSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_dedup_session_test_" +
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

/// Total on-disk bytes of the session's WAL — the "zero WAL growth"
/// measurement. Duplicates must not move this by a single byte.
uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  const std::string wal_dir = dir + "/wal";
  if (!std::filesystem::exists(wal_dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<StreamPoint> AllPoints(const Dataset& ds) {
  std::vector<StreamPoint> points;
  points.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  return points;
}

// Re-observe the entire stream through both ingest paths against a
// settled session; nothing observable may move.
void ExpectFullReplayIsNoOp(DurableSession& session, const Dataset& ds) {
  const uint64_t wal_before = WalBytes(session.dir());
  const uint64_t version_before = session.StateVersion();
  const int64_t observed_before = session.ObservedElements();
  const int64_t rejected_before = session.DuplicatesRejected();
  auto solution_before = session.Solve();
  ASSERT_TRUE(solution_before.ok()) << solution_before.status().ToString();

  // Element path: every point individually.
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint point = ds.At(i);
    auto outcome = session.Ingest({&point, 1}, /*as_batch=*/false);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->accepted, 0);
    EXPECT_EQ(outcome->duplicates, 1);
  }
  // Batch path: the whole stream in one call.
  const std::vector<StreamPoint> points = AllPoints(ds);
  auto batch = session.Ingest(points, /*as_batch=*/true);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->accepted, 0);
  EXPECT_EQ(batch->duplicates, static_cast<int64_t>(ds.size()));

  // Sync flushes any buffered appends to disk first, so a buggy WAL write
  // could not hide in the user-space buffer.
  ASSERT_TRUE(session.Sync().ok());
  EXPECT_EQ(WalBytes(session.dir()), wal_before);
  EXPECT_EQ(session.StateVersion(), version_before);
  EXPECT_EQ(session.ObservedElements(), observed_before);
  EXPECT_EQ(session.DuplicatesRejected(),
            rejected_before + 2 * static_cast<int64_t>(ds.size()));

  auto solution_after = session.Solve();
  ASSERT_TRUE(solution_after.ok()) << solution_after.status().ToString();
  EXPECT_EQ(solution_after->Ids(), solution_before->Ids());
  EXPECT_DOUBLE_EQ(solution_after->diversity, solution_before->diversity);
  EXPECT_DOUBLE_EQ(solution_after->mu, solution_before->mu);
}

// The acceptance matrix: every registered sink kind, full-stream
// re-observe through both paths.
TEST_F(DedupSessionTest, FullStreamReplayIsNoOpForEveryKind) {
  const Dataset ds2 = TestData(2);
  const Dataset ds3 = TestData(3, 150, 33);
  struct Case {
    const Dataset* data;
    std::string spec;
  };
  const std::vector<Case> cases = {
      {&ds2, "algo=streaming_dm dim=2 k=4 dedup=on" + BoundsSuffix(ds2)},
      {&ds2, "algo=sfdm1 dim=2 quotas=2,2 dedup=on" + BoundsSuffix(ds2)},
      {&ds3, "algo=sfdm2 dim=2 quotas=2,1,2 dedup=on" + BoundsSuffix(ds3)},
      {&ds2, "algo=adaptive dim=2 k=4 dedup=on"},
      {&ds2,
       "algo=sharded dim=2 k=4 shards=3 dedup=on" + BoundsSuffix(ds2)},
      {&ds2, "algo=sliding_window dim=2 k=4 window=300 checkpoints=3 "
             "dedup=on" + BoundsSuffix(ds2)},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].spec);
    const Dataset& ds = *cases[c].data;
    const std::string dir = dir_ + "/case" + std::to_string(c);
    DurableSessionOptions options;
    options.wal.segment_bytes = 1024;
    auto session = DurableSession::Create(dir, cases[c].spec, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(session->Sync().ok());
    ExpectFullReplayIsNoOp(*session, ds);
  }
}

// With dedup=off (the default), the same replay is NOT deduplicated —
// the guard is opt-in because sliding-window streams legitimately
// re-observe ids.
TEST_F(DedupSessionTest, DedupOffAdmitsReObservedIds) {
  const Dataset ds = TestData(2, 80, 5);
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_FALSE(session->DedupEnabled());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(session->Sync().ok());
  const uint64_t wal_before = WalBytes(dir_);
  const StreamPoint again = ds.At(0);
  auto outcome = session->Ingest({&again, 1}, /*as_batch=*/false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->accepted, 1);
  EXPECT_EQ(outcome->duplicates, 0);
  ASSERT_TRUE(session->Sync().ok());
  EXPECT_GT(WalBytes(dir_), wal_before);  // a real WAL record
  EXPECT_EQ(session->DuplicatesRejected(), 0);
}

// Crash recovery: the filter is restored from the snapshot's dedup footer
// and re-taught by WAL-tail replay, so a reopened session rejects the
// whole historical stream — including records that only ever lived in the
// tail. The rejection count is footer-exact: rejections before the
// snapshot survive; the unsnapshotted delta is deliberately forgotten.
TEST_F(DedupSessionTest, FilterSurvivesCrashRecovery) {
  const Dataset ds = TestData(2, 160, 11);
  const std::string spec =
      "algo=sfdm2 dim=2 quotas=3,3 dedup=on" + BoundsSuffix(ds);
  const size_t mid = ds.size() / 2;
  {
    DurableSessionOptions options;
    options.wal.segment_bytes = 1024;
    auto session = DurableSession::Create(dir_, spec, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < mid; ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    // Pre-snapshot rejections: these ride the footer.
    for (size_t i = 0; i < 10; ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_EQ(session->DuplicatesRejected(), 10);
    ASSERT_TRUE(session->TakeSnapshot().ok());
    // Tail records + post-snapshot rejections (the forgettable delta).
    for (size_t i = mid; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    for (size_t i = 0; i < 5; ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_EQ(session->DuplicatesRejected(), 15);
    // No Sync, no snapshot: the session dies here ("crash").
  }
  auto reopened = DurableSession::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->DedupEnabled());
  EXPECT_EQ(reopened->ObservedElements(), static_cast<int64_t>(ds.size()));
  // Footer count restored; the 5 post-snapshot rejections are gone by
  // design (they are exactly the records kept OUT of the log).
  EXPECT_EQ(reopened->DuplicatesRejected(), 10);
  ExpectFullReplayIsNoOp(*reopened, ds);
}

// Crash recovery must give back the guard's structure, not only its
// membership: the reopened session reports the filter bytes and grows the
// crashed one had. Ids 100..109 come first and wait in the table, just
// past the bitmap; 0..49 then fill the bitmap, and the snapshot lands.
// The restore must not double the bitmap for 100..109, and neither may
// their re-sends after ids 200..299 (the WAL never sees rejects, so
// recovery could not repeat that doubling).
TEST_F(DedupSessionTest, CrashRecoveryRebuildsTheFilterStructure) {
  const Dataset ds = TestData(2, 160, 11);
  const std::string spec =
      "algo=sfdm2 dim=2 quotas=3,3 dedup=on" + BoundsSuffix(ds);
  const auto point = [&](size_t i) {
    StreamPoint p = ds.At(i);
    p.id = i < 10   ? static_cast<int64_t>(100 + i)
           : i < 60 ? static_cast<int64_t>(i - 10)
                    : static_cast<int64_t>(200 + (i - 60));
    return p;
  };
  size_t crashed_bytes = 0;
  uint64_t crashed_grows = 0;
  {
    DurableSessionOptions options;
    options.wal.segment_bytes = 1024;
    auto session = DurableSession::Create(dir_, spec, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < 60; ++i) {
      const StreamPoint pt = point(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(session->TakeSnapshot().ok());
    for (size_t i = 60; i < ds.size(); ++i) {
      const StreamPoint pt = point(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    for (size_t i = 0; i < 10; ++i) {
      const StreamPoint pt = point(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_EQ(session->DuplicatesRejected(), 10);
    crashed_bytes = session->dedup_filter()->MemoryBytes();
    crashed_grows = session->dedup_filter()->Grows();
  }
  auto reopened = DurableSession::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_NE(reopened->dedup_filter(), nullptr);
  EXPECT_EQ(reopened->ObservedElements(), static_cast<int64_t>(ds.size()));
  EXPECT_EQ(reopened->dedup_filter()->MemoryBytes(), crashed_bytes);
  EXPECT_EQ(reopened->dedup_filter()->Grows(), crashed_grows);
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(reopened->dedup_filter()->Contains(point(i).id)) << i;
  }
}

// LRU spill under SessionManager: spilling snapshots the session (footer
// included), reloading restores it — duplicate rejection and its count
// must be exact across the cycle.
TEST_F(DedupSessionTest, FilterSurvivesLruSpill) {
  const Dataset ds = TestData(2, 100, 17);
  const std::string spec =
      "algo=streaming_dm dim=2 k=4 dedup=on" + BoundsSuffix(ds);
  SessionManagerOptions options;
  options.root_dir = dir_;
  options.max_resident = 1;  // touching a second session spills the first
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ASSERT_TRUE((*manager)->CreateSession("victim", spec).ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(
        (*manager)->Ingest("victim", {&pt, 1}, /*as_batch=*/false).ok());
  }
  const StreamPoint dup = ds.At(3);
  auto before = (*manager)->Ingest("victim", {&dup, 1}, /*as_batch=*/false);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->duplicates, 1);

  // Force the spill, then touch the victim again (transparent reload).
  ASSERT_TRUE((*manager)->CreateSession("usurper", spec).ok());
  const StreamPoint pt = ds.At(0);
  ASSERT_TRUE((*manager)->Ingest("usurper", {&pt, 1}, /*as_batch=*/false).ok());
  auto stats = (*manager)->Stats("victim");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->resident);

  auto after = (*manager)->Ingest("victim", {&dup, 1}, /*as_batch=*/false);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->accepted, 0);
  EXPECT_EQ(after->duplicates, 1);
  auto reloaded = (*manager)->Stats("victim");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->dedup);
  EXPECT_EQ(reloaded->duplicates_rejected, 2);  // spill snapshots first
  EXPECT_GT(reloaded->filter_bytes, 0u);
}

// The lenient-footer contract, at the unit level: `SessionState::Restore`
// treats a missing or truncated footer as "nothing persisted", never as a
// restore failure — that is what lets pre-dedup snapshots keep loading —
// and the spec, not the footer, decides the guard: a dedup=on state
// without a well-formed dedup footer starts with an empty guard (WAL
// replay re-teaches it), and a dedup footer on a dedup=off spec is ignored.
TEST_F(DedupSessionTest, SessionFooterReaderIsLenient) {
  const std::string off_spec = "algo=streaming_dm dim=2 k=2 dmin=0.1 dmax=10";
  const std::string on_spec = off_spec + " dedup=on";
  // A fresh `spec` session's payload at seq 0: head, then `footers`.
  const auto payload = [](const std::string& spec, const auto& footers) {
    auto state = SessionState::Parse(spec)->Fresh();
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    SnapshotWriter writer;
    EXPECT_TRUE(state->WriteHead(writer).ok());
    footers(writer);
    return writer.Serialize();
  };
  const auto restore = [](const std::string& spec, std::string bytes,
                          SessionIngestCounters* counters) {
    auto reader = SnapshotReader::FromBytes(std::move(bytes));
    EXPECT_TRUE(reader.ok());
    auto state = SessionState::Parse(spec);
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    return state->Restore(*reader, /*seq=*/0, counters);
  };
  const auto write_stats = [](SnapshotWriter& writer) {
    writer.WriteString("fdm.session.stats");
    writer.WriteI64(7);    // kept_total
    writer.WriteI64(3);    // ingest_batches
    writer.WriteI64(1);    // snapshots_taken
    writer.WriteDouble(0.5);
    writer.WriteI64(0);    // restores
    writer.WriteI64(0);    // replayed_records
  };
  const auto write_stats_and_dedup = [&](SnapshotWriter& writer) {
    write_stats(writer);
    writer.WriteString("fdm.session.dedup");
    writer.WriteI64(4);  // duplicates_rejected
    DedupFilter filter;
    ASSERT_TRUE(filter.InsertIfAbsent(11));
    ASSERT_TRUE(filter.InsertIfAbsent(22));
    filter.Serialize(writer);
  };
  const auto expect_empty_guard = [](const SessionState& state) {
    ASSERT_NE(state.guard(), nullptr);
    EXPECT_EQ(state.guard()->Size(), 0u);
    EXPECT_EQ(state.duplicates_rejected(), 0);
  };

  // No footers at all (a pre-footer snapshot tail): counters untouched.
  {
    SessionIngestCounters counters;
    counters.kept_total = -1;
    auto state = restore(on_spec, payload(on_spec, [](SnapshotWriter&) {}),
                         &counters);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(counters.kept_total, -1);
    expect_empty_guard(*state);
  }
  // Stats footer only (a pre-dedup snapshot): counters restored, an empty
  // guard, no error.
  {
    SessionIngestCounters counters;
    auto state = restore(on_spec, payload(on_spec, write_stats), &counters);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(counters.kept_total, 7);
    EXPECT_EQ(counters.ingest_batches, 3);
    expect_empty_guard(*state);
  }
  // Stats + dedup footer: the guard comes back with its membership and
  // the rejection count.
  {
    SessionIngestCounters counters;
    auto state =
        restore(on_spec, payload(on_spec, write_stats_and_dedup), &counters);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(counters.kept_total, 7);
    ASSERT_NE(state->guard(), nullptr);
    EXPECT_EQ(state->duplicates_rejected(), 4);
    EXPECT_TRUE(state->guard()->Contains(11));
    EXPECT_TRUE(state->guard()->Contains(22));
    EXPECT_FALSE(state->guard()->Contains(33));
  }
  // A truncated dedup footer (tag but nothing after) degrades to "no
  // guard persisted", not an error.
  {
    auto state = restore(on_spec, payload(on_spec, [&](SnapshotWriter& w) {
                           write_stats(w);
                           w.WriteString("fdm.session.dedup");
                         }),
                         nullptr);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    expect_empty_guard(*state);
  }
  // A dedup footer on a dedup=off spec is ignored: no guard, no count.
  {
    SessionIngestCounters counters;
    auto state =
        restore(off_spec, payload(off_spec, write_stats_and_dedup), &counters);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(counters.kept_total, 7);
    EXPECT_EQ(state->guard(), nullptr);
    EXPECT_EQ(state->duplicates_rejected(), 0);
  }
}

// Spec migration: flipping dedup=on in an existing session's SPEC file
// invalidates its snapshots (restore is spec-checked), so recovery falls
// back to replaying the retained WAL from scratch — and the fresh filter
// relearns the whole stream along the way. The expensive path, but the
// exact one the WAL-is-authoritative design promises.
TEST_F(DedupSessionTest, SpecMigrationRelearnsMembershipFromWalReplay) {
  const Dataset ds = TestData(2, 120, 23);
  const std::string off_spec =
      "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  const size_t mid = ds.size() / 2;
  {
    auto session = DurableSession::Create(dir_, off_spec);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < mid; ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(session->TakeSnapshot().ok());  // no dedup footer
    for (size_t i = mid; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
    }
    ASSERT_TRUE(session->Sync().ok());
  }
  {
    // The operator flips the switch on the existing session.
    std::ofstream spec_file(dir_ + "/SPEC", std::ios::trunc);
    spec_file << off_spec << " dedup=on";
  }
  auto reopened = DurableSession::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->DedupEnabled());
  EXPECT_EQ(reopened->DuplicatesRejected(), 0);
  EXPECT_EQ(reopened->ObservedElements(), static_cast<int64_t>(ds.size()));
  // Every id in the stream — snapshot-era and tail alike — is known: the
  // old snapshot no longer matched the spec, so the whole WAL replayed
  // through the fresh filter.
  ASSERT_NE(reopened->dedup_filter(), nullptr);
  EXPECT_EQ(reopened->dedup_filter()->Size(), ds.size());
  EXPECT_TRUE(reopened->dedup_filter()->Contains(ds.At(0).id));
  EXPECT_TRUE(reopened->dedup_filter()->Contains(ds.At(mid + 1).id));
  ExpectFullReplayIsNoOp(*reopened, ds);
}

// Negative ids carry no identity: they bypass the guard entirely, in
// both directions — never rejected, never remembered.
TEST_F(DedupSessionTest, NegativeIdsBypassTheGuard) {
  const Dataset ds = TestData(2, 40, 29);
  const std::string spec =
      "algo=streaming_dm dim=2 k=4 dedup=on" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::vector<double> coords = {0.5, -0.5};
  const StreamPoint anonymous{-1, 0, coords};
  for (int i = 0; i < 3; ++i) {
    auto outcome = session->Ingest({&anonymous, 1}, /*as_batch=*/false);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->accepted, 1);
    EXPECT_EQ(outcome->duplicates, 0);
  }
  EXPECT_EQ(session->DuplicatesRejected(), 0);
  EXPECT_EQ(session->ObservedElements(), 3);
}

}  // namespace
}  // namespace fdm
