// Snapshot round-trip invariants for every sink kind: restoring a snapshot
// taken after ANY stream prefix yields a sink whose Solve(),
// StoredElements(), and ObservedElements() are bit-identical to the
// uninterrupted instance — and which keeps evolving identically when the
// rest of the stream is fed to both.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_streaming_dm.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/sharded_stream.h"
#include "core/sink_snapshot.h"
#include "core/sliding_window.h"
#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace fdm {
namespace {

Dataset SmallData(int m, uint64_t seed = 41, size_t n = 60) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = m;
  opt.seed = seed;
  return MakeBlobs(opt);
}

StreamingOptions OptionsFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  StreamingOptions o;
  o.epsilon = 0.1;
  o.d_min = b.min;
  o.d_max = b.max;
  return o;
}

template <typename Algo>
Result<Algo> RoundTrip(const Algo& algo) {
  SnapshotWriter writer;
  Status snap = algo.Snapshot(writer);
  if (!snap.ok()) return snap;
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  if (!reader.ok()) return reader.status();
  return Algo::Restore(*reader);
}

template <typename Algo>
void ExpectIdentical(const Algo& original, const Algo& restored) {
  EXPECT_EQ(original.ObservedElements(), restored.ObservedElements());
  EXPECT_EQ(original.StoredElements(), restored.StoredElements());
  const auto a = original.Solve();
  const auto b = restored.Solve();
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code());
    return;
  }
  EXPECT_EQ(a->Ids(), b->Ids());
  EXPECT_DOUBLE_EQ(a->diversity, b->diversity);
  EXPECT_DOUBLE_EQ(a->mu, b->mu);
  ASSERT_EQ(a->points.size(), b->points.size());
  for (size_t i = 0; i < a->points.size(); ++i) {
    for (size_t d = 0; d < a->points.dim(); ++d) {
      EXPECT_EQ(a->points.CoordAt(i, d), b->points.CoordAt(i, d));
    }
  }
}

/// The satellite-task harness: snapshot after EVERY prefix length of a
/// small stream; each restored instance must match, and the one restored
/// at the midpoint must stay identical through the rest of the stream.
template <typename Algo>
void RunPrefixRoundTrips(const Dataset& ds, Algo algo) {
  std::unique_ptr<Algo> resumed;  // restored at the midpoint, then fed on
  for (size_t i = 0; i < ds.size(); ++i) {
    algo.Observe(ds.At(i));
    if (resumed != nullptr) resumed->Observe(ds.At(i));
    auto restored = RoundTrip(algo);
    ASSERT_TRUE(restored.ok())
        << "prefix " << (i + 1) << ": " << restored.status().ToString();
    ExpectIdentical(algo, *restored);
    if (i + 1 == ds.size() / 2) {
      resumed = std::make_unique<Algo>(std::move(restored.value()));
    }
  }
  ASSERT_NE(resumed, nullptr);
  ExpectIdentical(algo, *resumed);
}

TEST(SnapshotTest, StreamingDmEveryPrefix) {
  const Dataset ds = SmallData(1);
  auto algo = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, Sfdm1EveryPrefix) {
  const Dataset ds = SmallData(2);
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  auto algo =
      Sfdm1::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, Sfdm2EveryPrefix) {
  const Dataset ds = SmallData(3);
  FairnessConstraint constraint;
  constraint.quotas = {2, 1, 2};
  auto algo =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, AdaptiveStreamingDmEveryPrefix) {
  const Dataset ds = SmallData(1, 43);
  auto algo =
      AdaptiveStreamingDm::Create(4, ds.dim(), ds.metric_kind(), 0.1);
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, ShardedStreamingDmEveryPrefix) {
  const Dataset ds = SmallData(1, 44);
  ShardedStreamingOptions sharding;
  sharding.num_shards = 3;
  auto algo = ShardedStreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                         OptionsFor(ds), sharding);
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, SlidingWindowEveryPrefix) {
  const Dataset ds = SmallData(1, 45, 80);
  const StreamingOptions streaming = OptionsFor(ds);
  const size_t dim = ds.dim();
  const MetricKind metric = ds.metric_kind();
  auto algo = SlidingWindow<StreamingDm>::Create(
      30, 3, [dim, metric, streaming] {
        return StreamingDm::Create(4, dim, metric, streaming);
      });
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, Sfdm2PreservesAblationKnobs) {
  const Dataset ds = SmallData(2, 46);
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  auto algo =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  algo->set_warm_start(false);
  algo->set_greedy_augmentation(false);
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));
  auto restored = RoundTrip(*algo);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->warm_start());
  EXPECT_FALSE(restored->greedy_augmentation());
}

TEST(SnapshotTest, DispatcherRestoresByTag) {
  const Dataset ds = SmallData(2, 47);
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  auto algo =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));

  SnapshotWriter writer;
  ASSERT_TRUE(algo->Snapshot(writer).ok());
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  auto restored = RestoreSink(*reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const auto a = algo->Solve();
  const auto b = (*restored)->Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Ids(), b->Ids());
  EXPECT_DOUBLE_EQ(a->diversity, b->diversity);
}

TEST(SnapshotTest, CorruptionIsDetected) {
  const Dataset ds = SmallData(1, 48);
  auto algo = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));
  SnapshotWriter writer;
  ASSERT_TRUE(algo->Snapshot(writer).ok());
  std::string framed = writer.Serialize();

  // Flip one payload byte: the frame checksum must reject the file.
  std::string corrupt = framed;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(SnapshotReader::FromBytes(corrupt).ok());

  // Truncation must be rejected too.
  EXPECT_FALSE(
      SnapshotReader::FromBytes(framed.substr(0, framed.size() - 9)).ok());

  // And a wrong magic.
  std::string not_snap = framed;
  not_snap[0] = 'X';
  EXPECT_FALSE(SnapshotReader::FromBytes(not_snap).ok());
}

TEST(SnapshotTest, FileRoundTrip) {
  const Dataset ds = SmallData(1, 49);
  auto algo = StreamingDm::Create(3, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));

  const std::string path = ::testing::TempDir() + "/fdm_snapshot_test.snap";
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(algo->Snapshot(writer).ok());
    ASSERT_TRUE(writer.Commit().ok());
  }
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto restored = StreamingDm::Restore(*reader);
  ASSERT_TRUE(restored.ok());
  ExpectIdentical(*algo, *restored);
  std::remove(path.c_str());
}

// Golden bytes. Every test above is a round trip, which a layout change
// made the same way in writer and reader passes, while every snapshot
// already on disk stops restoring. These constants pin the framed snapshot
// (length and FNV-1a) and the Solve() output of every spec-built sink kind
// at a mid-stream prefix and at the end of a fixed stream.
struct GoldenPrefix {
  uint64_t snapshot_bytes;
  uint64_t snapshot_hash;
  uint64_t solve_hash;
};

struct GoldenCase {
  const char* spec;
  bool ablation_off;  // SFDM-2 only: both post-processing knobs off
  GoldenPrefix mid;
  GoldenPrefix end;
};

// FNV-1a over the solution's ids, then its diversity's bit pattern; a
// failed Solve() hashes its status code instead.
uint64_t SolveHash(const StreamSink& sink) {
  const auto solution = sink.Solve();
  if (!solution.ok()) {
    const int code = static_cast<int>(solution.status().code());
    return Fnv1a64(&code, sizeof(code));
  }
  const std::vector<int64_t> ids = solution->Ids();
  uint64_t diversity_bits = 0;
  std::memcpy(&diversity_bits, &solution->diversity, sizeof(diversity_bits));
  return Fnv1a64(&diversity_bits, sizeof(diversity_bits),
                 Fnv1a64(ids.data(), ids.size() * sizeof(int64_t)));
}

GoldenPrefix Measure(const StreamSink& sink) {
  SnapshotWriter writer;
  EXPECT_TRUE(sink.Snapshot(writer).ok());
  const std::string bytes = writer.Serialize();
  return GoldenPrefix{bytes.size(), Fnv1a64(bytes.data(), bytes.size()),
                      SolveHash(sink)};
}

void ExpectGolden(const GoldenPrefix& want, const GoldenPrefix& got,
                  const char* where) {
  EXPECT_TRUE(want.snapshot_bytes == got.snapshot_bytes &&
              want.snapshot_hash == got.snapshot_hash &&
              want.solve_hash == got.solve_hash)
      << where << ": got {" << got.snapshot_bytes << ", 0x" << std::hex
      << got.snapshot_hash << "ull, 0x" << got.solve_hash << "ull}";
}

TEST(SnapshotTest, GoldenBytesForEverySpecBuiltSink) {
  constexpr size_t kDim = 3;
  constexpr size_t kPrefixes[] = {80, 600};  // mid-stream, end of stream
  // A fixed mix of per-element Observe (chunk 1) and ObserveBatch chunks,
  // cycled from the start of each segment.
  constexpr size_t kChunks[] = {1, 7, 1, 1, 32, 5, 64, 1, 17, 3};
  const GoldenCase cases[] = {
      {"algo=streaming_dm dim=3 k=5 dmin=0.01 dmax=6",
       false,
       {11353, 0x4907a503551c7b8aull, 0x2d0306b229921d56ull},
       {11497, 0xdf5d23e61fda1cbcull, 0x5890c187badec753ull}},
      {"algo=sfdm1 dim=3 quotas=3,2 dmin=0.01 dmax=6",
       false,
       {25262, 0x99e1816689a78d67ull, 0xb16e9f4666ee7f51ull},
       {25550, 0xcf87dfe285be0b62ull, 0xb16e9f4666ee7f51ull}},
      {"algo=sfdm2 dim=3 quotas=2,2,1 dmin=0.01 dmax=6",
       false,
       {44748, 0xbf9368f7748c6dfbull, 0x40e96aaada88dadbull},
       {45576, 0xc1470aed1398b23cull, 0xb0ad7dfbb98e569bull}},
      {"algo=sfdm2 dim=3 quotas=2,2,1 dmin=0.01 dmax=6",
       true,
       {44748, 0x6334bbd58860ce91ull, 0x55659819aeffdf55ull},
       {45576, 0x5f507d652636d04bull, 0x55659819aeffdf55ull}},
      {"algo=adaptive dim=3 k=5",
       false,
       {3231, 0x33b6e2c9da7ef79bull, 0x2ca76580e2dc90b2ull},
       {3303, 0xc20e0254f2986cb8ull, 0x2ca76580e2dc90b2ull}},
      {"algo=sharded dim=3 k=5 dmin=0.01 dmax=6 shards=3",
       false,
       {33636, 0xdebeadfc7fcd547cull, 0xaa07529a21b1200full},
       {34716, 0xf31a8ecab0f152acull, 0x9f232e094e3ece83ull}},
      {"algo=sliding_window dim=3 k=5 dmin=0.01 dmax=6 window=120 "
       "checkpoints=4",
       false,
       {36054, 0xa06afd775a641e01ull, 0x2d0306b229921d56ull},
       {47783, 0xa57ae5157d27ca40ull, 0x29f1a50536a2d057ull}},
      {"algo=sfdm2 dim=3 quotas=2,2,1 metric=manhattan dmin=0.01 dmax=6",
       false,
       {47412, 0x7ef8a7c88a770fa1ull, 0x48025194f08666e7ull},
       {48024, 0x1778427786e9dc89ull, 0x28a8128d28d1c0c4ull}},
      {"algo=sfdm2 dim=3 quotas=2,2,1 metric=angular dmin=0.01 dmax=3.2",
       false,
       {43944, 0x904bcb12ae256246ull, 0xd00f6d2736ae5680ull},
       {44340, 0xa5e5c6034fbfa2b7ull, 0xd00f6d2736ae5680ull}},
  };
  for (const GoldenCase& golden : cases) {
    SCOPED_TRACE(std::string(golden.spec) +
                 (golden.ablation_off ? " (ablation knobs off)" : ""));
    auto spec = SinkSpec::Parse(golden.spec);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto made = spec->MakeSink();
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    StreamSink& sink = **made;
    if (golden.ablation_off) {
      auto* sfdm2 = dynamic_cast<Sfdm2*>(&sink);
      ASSERT_NE(sfdm2, nullptr);
      sfdm2->set_warm_start(false);
      sfdm2->set_greedy_augmentation(false);
    }
    const int64_t groups =
        spec->quotas.empty() ? 1 : static_cast<int64_t>(spec->quotas.size());
    Rng rng(2024);
    std::vector<double> coords(kPrefixes[1] * kDim);
    std::vector<StreamPoint> stream;
    for (size_t i = 0; i < kPrefixes[1]; ++i) {
      for (size_t d = 0; d < kDim; ++d) {
        coords[i * kDim + d] = rng.NextDouble(-1.0, 1.0);
      }
      stream.push_back(StreamPoint{
          static_cast<int64_t>(i), static_cast<int>(rng.NextInt(0, groups - 1)),
          std::span<const double>(coords.data() + i * kDim, kDim)});
    }
    size_t next = 0;
    for (size_t half = 0; half < 2; ++half) {
      const size_t stop = kPrefixes[half];
      for (size_t c = 0; next < stop; c = (c + 1) % std::size(kChunks)) {
        const size_t len = std::min(kChunks[c], stop - next);
        if (len == 1) {
          sink.Observe(stream[next]);
        } else {
          sink.ObserveBatch(
              std::span<const StreamPoint>(stream.data() + next, len));
        }
        next += len;
      }
      const GoldenPrefix got = Measure(sink);
      ExpectGolden(half == 0 ? golden.mid : golden.end, got,
                   half == 0 ? "mid-stream" : "end of stream");
    }
  }
}

}  // namespace
}  // namespace fdm
