// Interleaved-query invariants of the incremental query path: for every
// registered streaming kind, calling Solve() after each stream prefix —
// on one long-lived sink, through a version-keyed SolveCache — must be
// bit-identical to a fresh-sink replay's Solve() at that prefix. This
// proves the state-version contract, the solve cache, and SFDM-2's
// incremental per-rung post-processing can never change results, including
// across a snapshot/restore in the middle of the stream.

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/diversity.h"
#include "core/sink_snapshot.h"
#include "core/solve_cache.h"
#include "core/stream_sink.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "harness/registry.h"
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

RunConfig ConfigFor(const Dataset& ds, AlgorithmKind kind) {
  RunConfig config;
  config.algorithm = kind;
  config.constraint.quotas = {2, 2};
  const DistanceBounds bounds = ComputeDistanceBoundsExact(ds);
  config.bounds = bounds;
  config.num_shards = 3;
  config.window_size = 0;  // whole dataset
  return config;
}

void ExpectSameOutcome(const Result<Solution>& a, const Result<Solution>& b,
                       size_t prefix) {
  ASSERT_EQ(a.ok(), b.ok()) << "prefix " << prefix << ": "
                            << a.status().ToString() << " vs "
                            << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << "prefix " << prefix;
    return;
  }
  EXPECT_EQ(a->Ids(), b->Ids()) << "prefix " << prefix;
  EXPECT_EQ(a->diversity, b->diversity) << "prefix " << prefix;
  EXPECT_EQ(a->mu, b->mu) << "prefix " << prefix;
  ASSERT_EQ(a->points.size(), b->points.size()) << "prefix " << prefix;
  for (size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points.GroupAt(i), b->points.GroupAt(i));
    for (size_t d = 0; d < a->points.dim(); ++d) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a->points.CoordAt(i, d)),
                std::bit_cast<uint64_t>(b->points.CoordAt(i, d)))
          << "prefix " << prefix << " point " << i << " dim " << d;
    }
  }
}

/// Snapshot + tag-dispatched restore of a polymorphic sink.
Result<std::unique_ptr<StreamSink>> RoundTrip(const StreamSink& sink) {
  SnapshotWriter writer;
  if (Status s = sink.Snapshot(writer); !s.ok()) return s;
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  if (!reader.ok()) return reader.status();
  return RestoreSink(*reader);
}

/// The satellite harness: one long-lived sink queried after every prefix
/// (via a SolveCache and directly), checked against a fresh-sink replay of
/// the same prefix; the long-lived sink is swapped for a snapshot-restored
/// copy at the midpoint.
void RunInterleaved(const Dataset& ds, AlgorithmKind kind) {
  const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->streaming);
  const RunConfig config = ConfigFor(ds, kind);

  auto live = entry->make_sink(ds, config);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  std::unique_ptr<StreamSink> sink = std::move(live.value());
  SolveCache cache;

  uint64_t last_version = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const bool mutated = sink->Observe(ds.At(i));
    const uint64_t version = sink->StateVersion();
    // The version is monotone and advances exactly when Observe reports a
    // mutation.
    EXPECT_GE(version, last_version);
    EXPECT_EQ(mutated, version != last_version) << "prefix " << (i + 1);
    last_version = version;

    // Fresh replay of the same prefix.
    auto fresh = entry->make_sink(ds, config);
    ASSERT_TRUE(fresh.ok());
    for (size_t t = 0; t <= i; ++t) (*fresh)->Observe(ds.At(t));
    // Chunking-invariance: the per-element replay reaches the same version.
    EXPECT_EQ((*fresh)->StateVersion(), version) << "prefix " << (i + 1);

    const Result<Solution> expected = (*fresh)->Solve();
    const Result<Solution> direct = sink->Solve();
    const Result<Solution> cached = cache.GetOrCompute(
        version, [&] { return sink->Solve(); });
    ExpectSameOutcome(expected, direct, i + 1);
    ExpectSameOutcome(expected, cached, i + 1);

    // Swap the live sink for a snapshot-restored copy mid-stream: the
    // restored sink must continue the version sequence and keep the cache
    // valid (its entries are keyed by versions the restored sink shares).
    if (i + 1 == ds.size() / 2) {
      auto restored = RoundTrip(*sink);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_EQ((*restored)->StateVersion(), version);
      sink = std::move(restored.value());
      ExpectSameOutcome(expected, cache.GetOrCompute(sink->StateVersion(),
                                                     [&] {
                                                       return sink->Solve();
                                                     }),
                        i + 1);
    }
  }

  // After a saturated stream most prefixes leave state untouched, so the
  // cache must have actually been exercised.
  EXPECT_GT(cache.GetStats().hits, 0u) << "cache never hit for this kind";
}

class IncrementalSolveTest : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(IncrementalSolveTest, PrefixSolvesMatchFreshReplay) {
  RunInterleaved(TestData(), GetParam());
}

std::vector<AlgorithmKind> StreamingKinds() {
  std::vector<AlgorithmKind> kinds;
  for (const AlgorithmKind kind : AlgorithmRegistry::Instance().Kinds()) {
    const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
    if (entry != nullptr && entry->streaming) kinds.push_back(kind);
  }
  return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    AllStreamingKinds, IncrementalSolveTest,
    ::testing::ValuesIn(StreamingKinds()),
    [](const ::testing::TestParamInfo<AlgorithmKind>& info) {
      std::string name(AlgorithmName(info.param));
      for (char& c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
      }
      return name;
    });

// SFDM-2's rung memo keeps (candidate, position) references, not copies of
// each rung's solution. With dedup off, a stream may reuse an id with new
// coordinates and a new group, so one id can sit in the blind candidate
// and in a group candidate with different bytes; a reference must name
// the copy the rung's ground set kept. After every batch, the long-lived
// sink's Solve() must match a fresh replay of the same prefix byte for
// byte, and the memo is exercised warm between batches.
TEST(IncrementalSolveReusedIdsTest, Sfdm2BatchesMatchFreshReplay) {
  const Dataset ds = TestData(120);
  const AlgorithmEntry* entry =
      AlgorithmRegistry::Instance().Find(AlgorithmKind::kSfdm2);
  ASSERT_NE(entry, nullptr);
  const RunConfig config = ConfigFor(ds, AlgorithmKind::kSfdm2);
  // Every id is sent twice in a row, once in each group, with the two
  // rows' different coordinates.
  std::vector<StreamPoint> stream;
  for (size_t i = 0; i < ds.size(); ++i) {
    StreamPoint p = ds.At(i);
    p.id = static_cast<int64_t>(i / 2);
    p.group = static_cast<int32_t>(i % 2);
    stream.push_back(p);
  }

  constexpr std::array<size_t, 5> kBatchSizes = {1, 4, 9, 2, 16};
  auto live = entry->make_sink(ds, config);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  size_t solved = 0;
  size_t next = 0;
  for (size_t b = 0; next < stream.size(); ++b) {
    const size_t size =
        std::min(stream.size() - next, kBatchSizes[b % kBatchSizes.size()]);
    (*live)->ObserveBatch(std::span(stream).subspan(next, size));
    next += size;

    auto fresh = entry->make_sink(ds, config);
    ASSERT_TRUE(fresh.ok());
    for (size_t t = 0; t < next; ++t) (*fresh)->Observe(stream[t]);
    const Result<Solution> expected = (*fresh)->Solve();
    const Result<Solution> got = (*live)->Solve();
    ExpectSameOutcome(expected, got, next);
    if (!got.ok()) continue;
    ++solved;
    // Independent of the memo: a reference to the wrong copy of an id
    // would return bytes the rung's diversity and quotas were not
    // computed on.
    EXPECT_EQ(std::bit_cast<uint64_t>(got->diversity),
              std::bit_cast<uint64_t>(MinPairwiseDistance(
                  got->points, Metric(ds.metric_kind()))))
        << "prefix " << next;
    EXPECT_TRUE(SatisfiesQuotas(got->points, config.constraint.quotas))
        << "prefix " << next;
  }
  EXPECT_GT(solved, 10u) << "too few feasible prefixes to test the memo";
}

// Batched ingestion must land on the same state version as per-element
// ingestion (chunking-invariance) — this is what keeps a WAL replay's
// version, and therefore the warm solve cache, valid after recovery.
TEST(StateVersionTest, ChunkingInvariantAcrossBatchSizes) {
  const Dataset ds = TestData(60);
  for (const AlgorithmKind kind : StreamingKinds()) {
    const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
    RunConfig config = ConfigFor(ds, kind);
    auto sequential = entry->make_sink(ds, config);
    ASSERT_TRUE(sequential.ok());
    for (size_t i = 0; i < ds.size(); ++i) (*sequential)->Observe(ds.At(i));

    for (const size_t batch_size : {3u, 17u, 64u}) {
      auto batched = entry->make_sink(ds, config);
      ASSERT_TRUE(batched.ok());
      std::vector<StreamPoint> batch;
      for (size_t i = 0; i < ds.size(); ++i) {
        batch.push_back(ds.At(i));
        if (batch.size() == batch_size) {
          (*batched)->ObserveBatch(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) (*batched)->ObserveBatch(batch);
      EXPECT_EQ((*batched)->StateVersion(), (*sequential)->StateVersion())
          << AlgorithmName(kind) << " batch_size=" << batch_size;
    }
  }
}

// The acceptance contract of the SIMD kernel subsystem at the sink level:
// every registered streaming kind, ingesting half per-element and half
// batched, must produce bit-identical Solve() output, state version, and
// stored-element count under every kernel dispatch target reachable on
// this machine (the in-process equivalent of running the suite under
// FDM_KERNEL=scalar vs the best native target).
TEST(KernelTargetEquivalenceTest, SolveIdenticalAcrossDispatchTargets) {
  const Dataset ds = TestData(60);
  for (const AlgorithmKind kind : StreamingKinds()) {
    const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
    const RunConfig config = ConfigFor(ds, kind);
    struct Outcome {
      Result<Solution> solution = Status::Ok();
      uint64_t version = 0;
      size_t stored = 0;
    };
    std::vector<Outcome> outcomes;
    for (const std::string_view target : simd::AvailableKernelTargets()) {
      ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(target));
      auto sink = entry->make_sink(ds, config);
      ASSERT_TRUE(sink.ok()) << sink.status().ToString();
      const size_t half = ds.size() / 2;
      for (size_t i = 0; i < half; ++i) (*sink)->Observe(ds.At(i));
      std::vector<StreamPoint> batch;
      for (size_t i = half; i < ds.size(); ++i) batch.push_back(ds.At(i));
      (*sink)->ObserveBatch(batch);
      outcomes.push_back(Outcome{(*sink)->Solve(), (*sink)->StateVersion(),
                                 (*sink)->StoredElements()});
    }
    ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(""));
    for (size_t t = 1; t < outcomes.size(); ++t) {
      ExpectSameOutcome(outcomes[0].solution, outcomes[t].solution,
                        ds.size());
      EXPECT_EQ(outcomes[0].version, outcomes[t].version)
          << AlgorithmName(kind) << " target index " << t;
      EXPECT_EQ(outcomes[0].stored, outcomes[t].stored)
          << AlgorithmName(kind) << " target index " << t;
    }
  }
}

// A rejected element must not advance the version: duplicate coordinates
// are at distance 0 from an already-kept point, so every candidate rejects
// them and a version-keyed cache keeps serving the memoized solution.
TEST(StateVersionTest, RejectedElementsDoNotAdvanceVersion) {
  const Dataset ds = TestData(30);
  for (const AlgorithmKind kind :
       {AlgorithmKind::kStreamingDm, AlgorithmKind::kSfdm1,
        AlgorithmKind::kSfdm2}) {
    const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
    const RunConfig config = ConfigFor(ds, kind);
    auto sink = entry->make_sink(ds, config);
    ASSERT_TRUE(sink.ok());
    for (size_t i = 0; i < ds.size(); ++i) (*sink)->Observe(ds.At(i));
    const uint64_t version = (*sink)->StateVersion();
    // Re-observing already-seen points mutates nothing.
    for (size_t i = 0; i < ds.size(); ++i) {
      EXPECT_FALSE((*sink)->Observe(ds.At(i))) << AlgorithmName(kind);
    }
    EXPECT_EQ((*sink)->StateVersion(), version) << AlgorithmName(kind);
  }
}

}  // namespace
}  // namespace fdm
