// The query-path determinism contract (core/solve_pool.h): a Solve() that
// fans its per-rung / per-shard / per-candidate post-processing out over
// the shared solve pool must be bit-identical to the sequential solve —
// for every sink kind, every reachable kernel dispatch target, and every
// process-wide solve width — including across a mid-stream
// snapshot/restore and when SFDM-2 reuses warm rung memos after a partial
// invalidation. The width is a deployment setting, not sink state:
// snapshots and SPEC lines written when it was a per-sink key still read,
// and a reopened session needs nothing re-applied to solve on the pool.
// The ingest-side counterpart of this contract lives in
// stream_sink_batch_test.cc; the cross-target counterpart in
// incremental_solve_test.cc.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/sink_snapshot.h"
#include "core/solve_pool.h"
#include "core/stream_sink.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "net/dispatch.h"
#include "obs/metrics.h"
#include "service/durable_session.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"

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

/// Sets the process-wide solve width for one scope and restores the
/// default (1, sequential) when the scope ends — also when an assertion
/// returns early.
class ScopedSolveWidth {
 public:
  explicit ScopedSolveWidth(int threads) { Set(threads); }
  ~ScopedSolveWidth() { Set(1); }
  ScopedSolveWidth(const ScopedSolveWidth&) = delete;
  ScopedSolveWidth& operator=(const ScopedSolveWidth&) = delete;
  void Set(int threads) {
    ASSERT_TRUE(SolveParallelism::SetThreads(threads).ok()) << threads;
  }
};

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
      EXPECT_EQ(a->points.CoordsAt(i)[d], b->points.CoordsAt(i)[d])
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
  ScopedSolveWidth width(1);
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
  ScopedSolveWidth width(1);
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
  ScopedSolveWidth width(1);
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
  ScopedSolveWidth width(3);
  EXPECT_EQ(SolveParallelism::Threads(), 3);
  const Status rejected = SolveParallelism::SetThreads(-1);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_EQ(SolveParallelism::Threads(), 3);
  if (obs::kMetricsEnabled) {
    EXPECT_NE(obs::MetricsRegistry::Global().RenderPrometheus().find(
                  "fdm_solve_threads{value=\"3\"}"),
              std::string::npos);
  }
  width.Set(0);
  EXPECT_EQ(SolveParallelism::Threads(), 0);
}

// `solve_threads=N` was a per-sink spec key; SPEC lines written with it
// must still parse. N >= 0 is accepted and ignored, a negative N is
// rejected as before, and the canonical form never carries the key.
TEST(ParallelSolveTest, LegacySpecKeyIsAcceptedAndIgnored) {
  const std::string plain = "algo=sfdm2 dim=4 quotas=2,2 dmin=0.1 dmax=50";
  auto reference = SinkSpec::Parse(plain);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::string legacy : {"solve_threads=4", "solve_threads=0",
                                   "solve_threads=1"}) {
    auto spec = SinkSpec::Parse(plain + " " + legacy);
    ASSERT_TRUE(spec.ok()) << legacy << ": " << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), reference->ToString()) << legacy;
    EXPECT_EQ(spec->ToString().find("solve_threads"), std::string::npos);
  }
  EXPECT_FALSE(SinkSpec::Parse(plain + " solve_threads=-1").ok());
  EXPECT_FALSE(SinkSpec::Parse(plain + " solve_threads=many").ok());
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

// Snapshots of sinks built with a per-sink `solve_threads=4` hold 4 in the
// reserved i32 of the streaming, sharded and adaptive headers. They must
// restore, solve bit-identically to the width-1 sink, and re-snapshot with
// 1 in the slot — byte for byte the snapshot of the width-1 sink.
TEST(ParallelSolveTest, SnapshotsWithAStoredWidthStillRestore) {
  const Dataset ds = TestData();
  const std::string tail = Tail(ds);
  // The slot's payload offset is the bytes each Snapshot writes before
  // it: the tag (a u64 length, then its characters), then the fields
  // named in the comments.
  constexpr size_t kTag = sizeof(uint64_t);
  // WriteStreamingHeader up to the slot: dim u64, metric u8,
  // d_min/d_max/ε doubles, batch_threads i32.
  constexpr size_t kHeader = 8 + 1 + 3 * 8 + 4;
  const struct {
    std::string spec;
    size_t slot;
  } cases[] = {
      // "streaming_dm", k i32, header.
      {"algo=streaming_dm k=4" + tail, kTag + 12 + 4 + kHeader},
      // "sfdm1" / "sfdm2", group count u64, two quota i32s, header.
      {"algo=sfdm1 quotas=2,2" + tail, kTag + 5 + 8 + 2 * 4 + kHeader},
      {"algo=sfdm2 quotas=2,2" + tail, kTag + 5 + 8 + 2 * 4 + kHeader},
      // "sharded_streaming_dm", k i32, dim u64, metric u8, batch_threads
      // i32.
      {"algo=sharded k=4 shards=3" + tail, kTag + 20 + 4 + 8 + 1 + 4},
      // "adaptive_streaming_dm", k i32, dim u64, metric u8, ε double,
      // max_rungs u64.
      {"algo=adaptive k=4 dim=" + std::to_string(ds.dim()),
       kTag + 21 + 4 + 8 + 1 + 8 + 8},
  };
  for (const auto& c : cases) {
    auto sink = MakeSink(c.spec);
    ASSERT_NE(sink, nullptr);
    for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));
    const std::string current = SnapshotBytes(*sink);
    ASSERT_EQ(I32At(current, c.slot), 1) << c.spec;

    auto restored = RestoreBytes(WithI32At(current, c.slot, 4));
    ASSERT_TRUE(restored.ok()) << c.spec << ": "
                               << restored.status().ToString();
    EXPECT_EQ((*restored)->StateVersion(), sink->StateVersion()) << c.spec;
    ExpectSameOutcome(sink->Solve(), (*restored)->Solve(), c.spec);
    EXPECT_EQ(SnapshotBytes(**restored), current) << c.spec;
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

// A session directory whose SPEC line carries the legacy key opens and
// serves the same SOLVE bytes as the same stream under the plain spec.
TEST_F(SessionWidthTest, LegacySpecSessionServesSameSolveBytes) {
  const Dataset ds = TestData(120);
  const std::string plain = "algo=sfdm2 quotas=2,2" + Tail(ds);
  const size_t mid = ds.size() / 2;
  std::string script = "CREATE legacy " + plain + " solve_threads=4\n" +
                       "CREATE plain " + plain + "\n";
  for (const std::string name : {"legacy", "plain"}) {
    script += ObserveBatchScript(name, ds, 0, mid);
    script += "SNAPSHOT " + name + "\n";
    script += ObserveBatchScript(name, ds, mid, ds.size());  // WAL tail
  }
  script += "QUIT\n";
  const std::string ingest = Serve(root_, script);
  EXPECT_EQ(ingest.find("ERR"), std::string::npos) << ingest;

  std::ifstream spec_file(SessionSpecPath(root_ + "/legacy"));
  std::string spec_line;
  ASSERT_TRUE(std::getline(spec_file, spec_line));
  EXPECT_NE(spec_line.find("solve_threads=4"), std::string::npos);

  // A restarted server reopens both directories from disk.
  const std::string replies = Serve(root_, "SOLVE legacy\nSOLVE plain\n");
  std::istringstream lines(replies);
  std::string legacy_reply;
  std::string plain_reply;
  ASSERT_TRUE(std::getline(lines, legacy_reply)) << replies;
  ASSERT_TRUE(std::getline(lines, plain_reply)) << replies;
  EXPECT_EQ(legacy_reply.rfind("OK div=", 0), 0u) << legacy_reply;
  EXPECT_EQ(legacy_reply, plain_reply);
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
      ASSERT_TRUE(session->Observe(ds.At(i)).ok());
      if (i + 1 == ds.size() / 2) {
        ASSERT_TRUE(session->TakeSnapshot().ok());
      }
    }
    ASSERT_TRUE(session->Sync().ok());
  }
  ScopedSolveWidth width(4);
  auto reopened = DurableSession::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  obs::Counter& runs = obs::MetricsRegistry::Global().GetCounter(
      "fdm_solve_parallel_runs_total", "");
  const uint64_t before = runs.Value();
  ASSERT_TRUE(reopened->Solve().ok());
  if (obs::kMetricsEnabled) {
    EXPECT_GT(runs.Value(), before);
  }
}

}  // namespace
}  // namespace fdm
