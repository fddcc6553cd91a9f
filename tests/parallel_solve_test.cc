// The query-path determinism contract (core/parallelism.h): a Solve() that
// fans its per-rung / per-shard / per-candidate post-processing out over
// the shared pool must be bit-identical to the sequential solve — for
// every sink kind, every reachable kernel dispatch target, and every
// process-wide width — including across a mid-stream snapshot/restore and
// when SFDM-2 reuses warm rung memos after a partial invalidation. The
// width is a deployment setting, not sink state: snapshots and SPEC lines
// written when it was a per-sink key still read, and a reopened session
// needs nothing re-applied to solve on the pool. At width 4, sessions that
// ingest, solve and snapshot at once share the one pool without stalling,
// serve the same bytes as a width-1 replay, and add no threads beyond it.
// The ingest-side counterpart of this contract lives in
// stream_sink_batch_test.cc; the cross-target counterpart in
// incremental_solve_test.cc.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallelism.h"
#include "core/sink_snapshot.h"
#include "core/stream_sink.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "net/dispatch.h"
#include "obs/metrics.h"
#include "scoped_width.h"
#include "service/durable_session.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fdm {
namespace {

Dataset TestData(size_t n = 48) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;  // SFDM1 requires exactly two groups
  opt.seed = 77;
  return MakeBlobs(opt);
}

/// " dim=… dmin=… dmax=…" for `ds`.
std::string Tail(const Dataset& ds) {
  const DistanceBounds bounds = ComputeDistanceBoundsExact(ds);
  std::ostringstream tail;
  tail << " dim=" << ds.dim() << " dmin=" << bounds.min
       << " dmax=" << bounds.max;
  return tail.str();
}

/// Spec strings for all six sink kinds over `ds`. Going through `SinkSpec`
/// (rather than the harness registry) builds the sinks the way the
/// serving layer does.
std::vector<std::string> AllKindSpecs(const Dataset& ds) {
  const std::string tail = Tail(ds);
  return {
      "algo=streaming_dm k=4" + tail,
      "algo=sfdm1 quotas=2,2" + tail,
      "algo=sfdm2 quotas=2,2" + tail,
      "algo=adaptive k=4 dim=" + std::to_string(ds.dim()),
      "algo=sharded k=4 shards=3" + tail,
      "algo=sliding_window k=4 window=40 checkpoints=3" + tail,
  };
}

void ExpectSameOutcome(const Result<Solution>& a, const Result<Solution>& b,
                       const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << ": " << a.status().ToString()
                            << " vs " << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
    return;
  }
  EXPECT_EQ(a->Ids(), b->Ids()) << what;
  EXPECT_EQ(a->diversity, b->diversity) << what;
  EXPECT_EQ(a->mu, b->mu) << what;
  ASSERT_EQ(a->points.size(), b->points.size()) << what;
  for (size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points.GroupAt(i), b->points.GroupAt(i)) << what;
    for (size_t d = 0; d < a->points.dim(); ++d) {
      EXPECT_EQ(a->points.CoordAt(i, d), b->points.CoordAt(i, d))
          << what << " point " << i << " dim " << d;
    }
  }
}

std::unique_ptr<StreamSink> MakeSink(const std::string& spec) {
  auto sink = MakeSinkFromSpec(spec);
  EXPECT_TRUE(sink.ok()) << spec << ": " << sink.status().ToString();
  return sink.ok() ? std::move(sink.value()) : nullptr;
}

std::string SnapshotBytes(const StreamSink& sink) {
  SnapshotWriter writer;
  EXPECT_TRUE(sink.Snapshot(writer).ok());
  return writer.Serialize();
}

/// Tag-dispatched restore of framed snapshot bytes.
Result<std::unique_ptr<StreamSink>> RestoreBytes(std::string bytes) {
  auto reader = SnapshotReader::FromBytes(std::move(bytes));
  if (!reader.ok()) return reader.status();
  return RestoreSink(*reader);
}

// The tentpole matrix: six sink kinds × every reachable kernel target ×
// widths {2, 4, 0(=hardware)} — the parallel sink's Solve() bit-identical
// to the sequential sink's (solved at width 1) at every stream prefix
// sampled, with the parallel sink additionally swapped for a
// snapshot-restored copy at the midpoint.
TEST(ParallelSolveTest, BitIdenticalAcrossKindsTargetsAndWidths) {
  const Dataset ds = TestData();
  ScopedWidth width(1);
  for (const std::string& spec : AllKindSpecs(ds)) {
    for (const std::string_view target : simd::AvailableKernelTargets()) {
      ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(target));
      for (const int threads : {2, 4, 0}) {
        const std::string what = spec + " [" + std::string(target) +
                                 " width " + std::to_string(threads) + "]";
        auto sequential = MakeSink(spec);
        auto parallel = MakeSink(spec);
        ASSERT_NE(sequential, nullptr);
        ASSERT_NE(parallel, nullptr);
        for (size_t i = 0; i < ds.size(); ++i) {
          sequential->Observe(ds.At(i));
          parallel->Observe(ds.At(i));
          if (i + 1 == ds.size() / 2) {
            // Mid-stream durability cycle of the *parallel* sink.
            auto restored = RestoreBytes(SnapshotBytes(*parallel));
            ASSERT_TRUE(restored.ok()) << what << ": "
                                       << restored.status().ToString();
            EXPECT_EQ((*restored)->StateVersion(), parallel->StateVersion())
                << what;
            parallel = std::move(restored.value());
          }
          // Query at a handful of prefixes (every prefix would be O(n)
          // solves per cell across a large matrix).
          if ((i + 1) % 12 == 0 || i + 1 == ds.size()) {
            width.Set(1);
            const Result<Solution> expected = sequential->Solve();
            width.Set(threads);
            ExpectSameOutcome(expected, parallel->Solve(),
                              what + " prefix " + std::to_string(i + 1));
            width.Set(1);
          }
        }
        EXPECT_EQ(sequential->StateVersion(), parallel->StateVersion())
            << what;
        EXPECT_EQ(sequential->StoredElements(), parallel->StoredElements())
            << what;
      }
    }
    ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(""));
  }
}

// SFDM-2's warm-memo path under parallel solve: a second Solve() after a
// partial rung invalidation recomputes only the dirty rungs (on pool
// workers) and reuses the warm memos for the rest — the result must still
// match both the sequential sink and a fresh replay.
TEST(ParallelSolveTest, Sfdm2WarmMemoReuseAfterPartialInvalidation) {
  const Dataset ds = TestData(60);
  const std::string spec = "algo=sfdm2 quotas=2,2" + Tail(ds);
  ScopedWidth width(1);
  auto sequential = MakeSink(spec);
  auto parallel = MakeSink(spec);
  ASSERT_NE(sequential, nullptr);
  ASSERT_NE(parallel, nullptr);
  // Solves `sequential` at width 1 and `parallel` at width 4, expects
  // the same outcome, and returns the sequential one.
  auto expect_same = [&](const std::string& what) {
    width.Set(1);
    Result<Solution> expected = sequential->Solve();
    width.Set(4);
    ExpectSameOutcome(expected, parallel->Solve(), what);
    width.Set(1);
    return expected;
  };

  const size_t warm_prefix = ds.size() / 2;
  for (size_t i = 0; i < warm_prefix; ++i) {
    sequential->Observe(ds.At(i));
    parallel->Observe(ds.At(i));
  }
  // Warm every rung memo in both sinks.
  expect_same("warm solve");

  // The stream tail typically lands in a subset of rungs (near-saturated
  // candidates reject), so this is a *partial* invalidation: some memos go
  // stale, the rest stay warm and must be reused as-is.
  for (size_t i = warm_prefix; i < ds.size(); ++i) {
    sequential->Observe(ds.At(i));
    parallel->Observe(ds.At(i));
  }
  const Result<Solution> expected = expect_same("post-invalidation solve");

  // Fresh cold replay cross-check: memo reuse changed nothing.
  auto fresh = MakeSink(spec);
  ASSERT_NE(fresh, nullptr);
  for (size_t i = 0; i < ds.size(); ++i) fresh->Observe(ds.At(i));
  width.Set(4);
  ExpectSameOutcome(expected, fresh->Solve(), "fresh cold replay");
}

// Changing the width is a pure query-latency setting: it must not advance
// any sink's state version (a version-keyed SolveCache keeps serving its
// memoized solution) and the next Solve() is bit-identical.
TEST(ParallelSolveTest, WidthChangeDoesNotAdvanceStateVersion) {
  const Dataset ds = TestData();
  ScopedWidth width(1);
  for (const std::string& spec : AllKindSpecs(ds)) {
    auto sink = MakeSink(spec);
    ASSERT_NE(sink, nullptr);
    for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));
    const Result<Solution> before = sink->Solve();
    const uint64_t version = sink->StateVersion();
    width.Set(4);
    EXPECT_EQ(sink->StateVersion(), version) << spec;
    ExpectSameOutcome(before, sink->Solve(), spec + " at width 4");
    width.Set(1);
    EXPECT_EQ(sink->StateVersion(), version) << spec;
  }
}

// A negative width is rejected and leaves the current width (and its
// published info series) untouched; 0 means all hardware threads.
TEST(ParallelSolveTest, SetThreadsRejectsNegativeWidth) {
  ScopedWidth width(3);
  EXPECT_EQ(Parallelism::Threads(), 3);
  const Status rejected = Parallelism::SetThreads(-1);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_EQ(Parallelism::Threads(), 3);
  if (obs::kMetricsEnabled) {
    EXPECT_NE(obs::MetricsRegistry::Global().RenderPrometheus().find(
                  "fdm_parallel_threads{value=\"3\"}"),
              std::string::npos);
  }
  width.Set(0);
  EXPECT_EQ(Parallelism::Threads(), 0);
}

// `threads=N` (the ingest width) and `solve_threads=N` were per-sink spec
// keys; SPEC lines written with them must still parse. Any integer
// `threads` and any `solve_threads` >= 0 are accepted and ignored, the
// values each key rejected before are still rejected, and the canonical
// form never carries either key.
TEST(ParallelSolveTest, LegacySpecKeysAreAcceptedAndIgnored) {
  const std::string plain = "algo=sfdm2 dim=4 quotas=2,2 dmin=0.1 dmax=50";
  auto reference = SinkSpec::Parse(plain);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::string legacy :
       {"solve_threads=4", "solve_threads=0", "solve_threads=1", "threads=4",
        "threads=0", "threads=1", "threads=-2",
        "threads=4 solve_threads=4"}) {
    auto spec = SinkSpec::Parse(plain + " " + legacy);
    ASSERT_TRUE(spec.ok()) << legacy << ": " << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), reference->ToString()) << legacy;
    EXPECT_EQ(spec->ToString().find("threads"), std::string::npos);
  }
  EXPECT_FALSE(SinkSpec::Parse(plain + " solve_threads=-1").ok());
  EXPECT_FALSE(SinkSpec::Parse(plain + " solve_threads=many").ok());
  EXPECT_FALSE(SinkSpec::Parse(plain + " threads=many").ok());
}

/// `framed` with the i32 at payload offset `at` set to `value` and the
/// frame checksum recomputed (frame layout: see `SnapshotWriter`).
std::string WithI32At(std::string framed, size_t at, int32_t value) {
  const size_t begin = SnapshotWriter::kHeaderBytes;
  const size_t size = framed.size() - begin - sizeof(uint64_t);
  std::memcpy(framed.data() + begin + at, &value, sizeof(value));
  const uint64_t checksum = Fnv1a64(framed.data() + begin, size);
  std::memcpy(framed.data() + begin + size, &checksum, sizeof(checksum));
  return framed;
}

int32_t I32At(const std::string& framed, size_t at) {
  int32_t value = 0;
  std::memcpy(&value, framed.data() + SnapshotWriter::kHeaderBytes + at,
              sizeof(value));
  return value;
}

// Snapshots of sinks built with a per-sink width hold it in a reserved i32
// of their header: `solve_threads=4` left 4 in the solve slot of the
// streaming, sharded and adaptive headers, and `threads=4` left 4 in the
// batch slot just before it in the streaming and sharded headers (the
// sharded API default left 0 there). They must restore, solve
// bit-identically to the width-1 sink, and re-snapshot with 1 in every
// slot — byte for byte the snapshot of the width-1 sink.
TEST(ParallelSolveTest, SnapshotsWithAStoredWidthStillRestore) {
  const Dataset ds = TestData();
  const std::string tail = Tail(ds);
  // The solve slot's payload offset is the bytes each Snapshot writes
  // before it: the tag (a u64 length, then its characters), then the
  // fields named in the comments.
  constexpr size_t kTag = sizeof(uint64_t);
  // WriteStreamingHeader up to the solve slot: dim u64, metric u8,
  // d_min/d_max/ε doubles, batch slot i32.
  constexpr size_t kHeader = 8 + 1 + 3 * 8 + 4;
  const struct {
    std::string spec;
    size_t slot;
    bool batch_slot;  // a batch slot sits just before the solve slot
  } cases[] = {
      // "streaming_dm", k i32, header.
      {"algo=streaming_dm k=4" + tail, kTag + 12 + 4 + kHeader, true},
      // "sfdm1" / "sfdm2", group count u64, two quota i32s, header.
      {"algo=sfdm1 quotas=2,2" + tail, kTag + 5 + 8 + 2 * 4 + kHeader, true},
      {"algo=sfdm2 quotas=2,2" + tail, kTag + 5 + 8 + 2 * 4 + kHeader, true},
      // "sharded_streaming_dm", k i32, dim u64, metric u8, batch slot i32.
      {"algo=sharded k=4 shards=3" + tail, kTag + 20 + 4 + 8 + 1 + 4, true},
      // "adaptive_streaming_dm", k i32, dim u64, metric u8, ε double,
      // max_rungs u64.
      {"algo=adaptive k=4 dim=" + std::to_string(ds.dim()),
       kTag + 21 + 4 + 8 + 1 + 8 + 8, false},
  };
  for (const auto& c : cases) {
    auto sink = MakeSink(c.spec);
    ASSERT_NE(sink, nullptr);
    for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));
    const std::string current = SnapshotBytes(*sink);
    ASSERT_EQ(I32At(current, c.slot), 1) << c.spec;
    // (offset, stored width) pairs to restore from.
    std::vector<std::pair<size_t, int32_t>> stored = {{c.slot, 4}};
    if (c.batch_slot) {
      ASSERT_EQ(I32At(current, c.slot - 4), 1) << c.spec;
      stored.push_back({c.slot - 4, 0});
      stored.push_back({c.slot - 4, 4});
    }
    for (const auto& [at, width] : stored) {
      const std::string what = c.spec + " [" + std::to_string(width) +
                               " at " + std::to_string(at) + "]";
      auto restored = RestoreBytes(WithI32At(current, at, width));
      ASSERT_TRUE(restored.ok()) << what << ": "
                                 << restored.status().ToString();
      EXPECT_EQ((*restored)->StateVersion(), sink->StateVersion()) << what;
      ExpectSameOutcome(sink->Solve(), (*restored)->Solve(), what);
      EXPECT_EQ(SnapshotBytes(**restored), current) << what;
    }
  }
}

/// `OBSERVEB <name> <n>` plus one payload line per point of `ds`.
std::string ObserveBatchScript(const std::string& name, const Dataset& ds,
                               size_t begin, size_t end) {
  std::ostringstream script;
  script.precision(17);
  script << "OBSERVEB " << name << " " << (end - begin) << "\n";
  for (size_t i = begin; i < end; ++i) {
    const StreamPoint p = ds.At(i);
    script << p.id << " " << p.group;
    for (const double c : p.coords) script << " " << c;
    script << "\n";
  }
  return script.str();
}

std::string Serve(const std::string& root, const std::string& script) {
  SessionManagerOptions options;
  options.root_dir = root;
  auto manager = SessionManager::Create(options);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  if (!manager.ok()) return "";
  net::RequestDispatcher dispatcher(manager->get(), root);
  std::istringstream in(script);
  std::ostringstream out;
  net::ServeLines(dispatcher, in, out);
  return out.str();
}

class SessionWidthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/fdm_parallel_solve_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

// Session directories whose SPEC lines carry a legacy width key open and
// serve the same SOLVE bytes as the same stream under the plain spec.
TEST_F(SessionWidthTest, LegacySpecSessionServesSameSolveBytes) {
  const Dataset ds = TestData(120);
  const std::string plain = "algo=sfdm2 quotas=2,2" + Tail(ds);
  const size_t mid = ds.size() / 2;
  const struct {
    std::string name;
    std::string key;
  } sessions[] = {
      {"legacy", " solve_threads=4"}, {"threads", " threads=4"}, {"plain", ""}};
  std::string script;
  for (const auto& s : sessions) {
    script += "CREATE " + s.name + " " + plain + s.key + "\n";
  }
  for (const auto& s : sessions) {
    script += ObserveBatchScript(s.name, ds, 0, mid);
    script += "SNAPSHOT " + s.name + "\n";
    script += ObserveBatchScript(s.name, ds, mid, ds.size());  // WAL tail
  }
  script += "QUIT\n";
  const std::string ingest = Serve(root_, script);
  EXPECT_EQ(ingest.find("ERR"), std::string::npos) << ingest;

  // A restarted server reopens every directory from disk.
  std::string solves;
  for (const auto& s : sessions) {
    std::ifstream spec_file(SessionSpecPath(root_ + "/" + s.name));
    std::string spec_line;
    ASSERT_TRUE(std::getline(spec_file, spec_line)) << s.name;
    EXPECT_NE(spec_line.find(plain + s.key), std::string::npos) << spec_line;
    solves += "SOLVE " + s.name + "\n";
  }
  const std::string replies = Serve(root_, solves);
  std::istringstream lines(replies);
  std::vector<std::string> reply(std::size(sessions));
  for (std::string& r : reply) ASSERT_TRUE(std::getline(lines, r)) << replies;
  EXPECT_EQ(reply[0].rfind("OK div=", 0), 0u) << reply[0];
  for (size_t i = 1; i < reply.size(); ++i) {
    EXPECT_EQ(reply[i], reply[0]) << sessions[i].name;
  }
}

// Nothing is re-applied after a restore: at width 4, a session reopened
// from its snapshot and WAL runs its first (cold — the cache is empty)
// Solve() on the shared pool.
TEST_F(SessionWidthTest, ReopenedSessionSolvesOnThePool) {
  const Dataset ds = TestData(120);
  const std::string spec = "algo=sfdm2 quotas=2,2" + Tail(ds);
  const std::string dir = root_ + "/s";
  {
    auto session = DurableSession::Create(dir, spec);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint pt = ds.At(i);
      ASSERT_TRUE(session->Ingest({&pt, 1}, /*as_batch=*/false).ok());
      if (i + 1 == ds.size() / 2) {
        ASSERT_TRUE(session->TakeSnapshot().ok());
      }
    }
    ASSERT_TRUE(session->Sync().ok());
  }
  ScopedWidth width(4);
  auto reopened = DurableSession::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  obs::Counter& runs = obs::MetricsRegistry::Global().GetCounter(
      "fdm_parallel_runs_total", "");
  const uint64_t before = runs.Value();
  ASSERT_TRUE(reopened->Solve().ok());
  if (obs::kMetricsEnabled) {
    EXPECT_GT(runs.Value(), before);
  }
}

constexpr size_t kDrillBatch = 64;
constexpr size_t kDrillDim = 4;
const char kDrillSpec[] = "algo=sfdm2 dim=4 quotas=2,2 dmin=0.01 dmax=2";

/// Batch `b` of drill stream `s`: 64 points in [0, 1)^4 with alternating
/// groups and ids `64b` … `64b + 63`, a pure function of `(s, b)`.
class DrillBatch {
 public:
  DrillBatch(int s, size_t b) : coords_(kDrillBatch * kDrillDim) {
    Rng rng(static_cast<uint64_t>(s) * 1000003 + b);
    for (double& c : coords_) c = rng.NextDouble();
    for (size_t i = 0; i < kDrillBatch; ++i) {
      StreamPoint& point = points_[i];
      point.id = static_cast<int64_t>(b * kDrillBatch + i);
      point.group = static_cast<int32_t>(i % 2);
      point.coords =
          std::span<const double>(coords_).subspan(i * kDrillDim, kDrillDim);
    }
  }
  DrillBatch(const DrillBatch&) = delete;
  DrillBatch& operator=(const DrillBatch&) = delete;

  std::span<const StreamPoint> points() const { return points_; }

 private:
  std::vector<double> coords_;
  std::vector<StreamPoint> points_ = std::vector<StreamPoint>(kDrillBatch);
};

std::string SolveReply(net::RequestDispatcher& dispatcher,
                       const std::string& name) {
  net::StringLineSource no_payload{std::string_view()};
  std::string out;
  dispatcher.HandleRequest("SOLVE " + name, no_payload, &out);
  return out;
}

// Every fan-out shares one pool, so a SnapshotAll task can wait on a
// session lock whose holder is mid-ingest and fanning out itself; on a pool
// that ran one job at a time that stalls at once. At width 4, one thread
// loops SnapshotAll, four ingest 64-point batches into four SFDM-2
// sessions and one solves, for 2 s. Every thread must make progress and
// stop on request, and the final SOLVE replies must equal a width-1 replay
// of the same per-session streams. Ingest pauses 1 ms between batches, so
// the window spans the whole 2 s and the replay stays short.
TEST_F(SessionWidthTest, SnapshotSweepIngestAndSolveShareThePool) {
  constexpr int kSessions = 4;
  const auto name = [](int s) { return "s" + std::to_string(s); };
  ScopedWidth width(4);
  SessionManagerOptions options;
  options.root_dir = root_ + "/drill";
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE((*manager)->CreateSession(name(s), kDrillSpec).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> sweeps{0};
  std::atomic<uint64_t> solves{0};
  std::vector<size_t> batches(kSessions, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!stop.load()) {
      if (!(*manager)->SnapshotAll().ok()) errors.fetch_add(1);
      sweeps.fetch_add(1);
    }
    finished.fetch_add(1);
  });
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (size_t b = 0; !stop.load(); ++b) {
        const DrillBatch batch(s, b);
        if (!(*manager)->Ingest(name(s), batch.points(), /*as_batch=*/true)
                 .ok()) {
          errors.fetch_add(1);
        }
        batches[static_cast<size_t>(s)] = b + 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      finished.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      for (int s = 0; s < kSessions; ++s) (void)(*manager)->Solve(name(s));
      solves.fetch_add(1);
    }
    finished.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  // A deadlocked pool cannot be joined; fail the binary instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (finished.load() < static_cast<int>(threads.size())) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr,
                   "drill stalled: %d of %zu threads stopped, %llu sweeps\n",
                   finished.load(), threads.size(),
                   static_cast<unsigned long long>(sweeps.load()));
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(sweeps.load(), 0u);
  EXPECT_GT(solves.load(), 0u);

  net::RequestDispatcher dispatcher(manager->get(), options.root_dir);
  width.Set(1);
  SessionManagerOptions replay_options;
  replay_options.root_dir = root_ + "/replay";
  replay_options.session.wal.sync_every = size_t{1} << 30;  // no fsyncs
  auto replay = SessionManager::Create(replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  net::RequestDispatcher replay_dispatcher(replay->get(),
                                           replay_options.root_dir);
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_GT(batches[static_cast<size_t>(s)], 0u) << name(s);
    ASSERT_TRUE((*replay)->CreateSession(name(s), kDrillSpec).ok());
    for (size_t b = 0; b < batches[static_cast<size_t>(s)]; ++b) {
      const DrillBatch batch(s, b);
      ASSERT_TRUE(
          (*replay)->Ingest(name(s), batch.points(), /*as_batch=*/true).ok());
    }
    width.Set(4);
    const std::string drilled = SolveReply(dispatcher, name(s));
    width.Set(1);
    EXPECT_EQ(drilled.rfind("OK div=", 0), 0u) << drilled;
    EXPECT_EQ(drilled, SolveReply(replay_dispatcher, name(s))) << name(s);
  }
}

// One pool per process: 32 SFDM-2 sessions ingesting at width 4 add no
// more threads than the shared pool's workers, whatever their specs say
// (the legacy `threads=4` key once gave each sink a pool of its own).
TEST_F(SessionWidthTest, SessionsAddNoThreadsBeyondTheSharedPool) {
  const auto live_threads = [] {
    int64_t count = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++count;
    }
    return count;
  };
  ScopedWidth width(4);
  const int64_t before = live_threads();
  SessionManagerOptions options;
  options.root_dir = root_;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (int s = 0; s < 32; ++s) {
    const std::string name = "s" + std::to_string(s);
    ASSERT_TRUE(
        (*manager)->CreateSession(name, std::string(kDrillSpec) + " threads=4")
            .ok());
    for (size_t b = 0; b < 4; ++b) {
      const DrillBatch batch(s, b);
      ASSERT_TRUE(
          (*manager)->Ingest(name, batch.points(), /*as_batch=*/true).ok());
    }
  }
  EXPECT_LE(live_threads() - before,
            static_cast<int64_t>(ThreadPool::DefaultThreads()) - 1);
}

}  // namespace
}  // namespace fdm
