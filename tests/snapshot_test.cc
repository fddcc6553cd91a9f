// Snapshot round-trip invariants for every sink kind: restoring a snapshot
// taken after ANY stream prefix yields a sink whose Solve(),
// StoredElements(), and ObservedElements() are bit-identical to the
// uninterrupted instance — and which keeps evolving identically when the
// rest of the stream is fed to both.

#include <memory>
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
#include "util/binary_io.h"

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
  SnapshotWriter writer;
  ASSERT_TRUE(algo->Snapshot(writer).ok());
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto restored = StreamingDm::Restore(*reader);
  ASSERT_TRUE(restored.ok());
  ExpectIdentical(*algo, *restored);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fdm
