// Frozen full candidates store each point once: the full candidates of a
// fixed-ladder sink intern their points into one pool, whichever path fed
// or restored the sink, and the pool changes no snapshot byte and no
// Solve() output. Batches whose
// coordinates already sit in one run are replayed without a repack and
// must match a scattered copy of the same batch and per-element Observe.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_ladder.h"
#include "core/fairness.h"
#include "core/sfdm2.h"
#include "core/sink_snapshot.h"
#include "core/streaming_candidate.h"
#include "core/streaming_dm.h"
#include "data/simulated.h"
#include "data/synthetic.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

std::string SnapshotBytes(const StreamSink& sink) {
  SnapshotWriter writer;
  EXPECT_TRUE(sink.Snapshot(writer).ok());
  return writer.Serialize();
}

/// Same snapshot bytes, same stored count and the same Solve() output, bit
/// for bit.
void ExpectSameState(const StreamSink& a, const StreamSink& b) {
  EXPECT_EQ(SnapshotBytes(a), SnapshotBytes(b));
  EXPECT_EQ(a.StoredElements(), b.StoredElements());
  const auto sa = a.Solve();
  const auto sb = b.Solve();
  ASSERT_EQ(sa.ok(), sb.ok());
  if (!sa.ok()) return;
  EXPECT_EQ(sa->Ids(), sb->Ids());
  EXPECT_EQ(sa->diversity, sb->diversity);
  EXPECT_EQ(sa->mu, sb->mu);
}

void FeedPerElement(StreamSink& sink, const Dataset& ds) {
  for (size_t i = 0; i < ds.size(); ++i) sink.Observe(ds.At(i));
}

/// Consecutive dataset rows: every batch is one contiguous run.
void FeedInBatches(StreamSink& sink, const Dataset& ds, size_t batch_size) {
  std::vector<StreamPoint> batch;
  for (size_t begin = 0; begin < ds.size(); begin += batch_size) {
    batch.clear();
    for (size_t i = begin; i < std::min(ds.size(), begin + batch_size); ++i) {
      batch.push_back(ds.At(i));
    }
    sink.ObserveBatch(batch);
  }
}

/// The same points as one batch over a copy of the coordinates laid out
/// back to front, so no point's coordinates follow the previous point's.
void FeedScattered(StreamSink& sink, const Dataset& ds) {
  const size_t dim = ds.dim();
  std::vector<double> coords(ds.size() * dim);
  std::vector<StreamPoint> batch;
  for (size_t i = 0; i < ds.size(); ++i) {
    const size_t at = (ds.size() - 1 - i) * dim;
    std::ranges::copy(ds.Point(i),
                      coords.begin() + static_cast<std::ptrdiff_t>(at));
    batch.push_back(StreamPoint{static_cast<int64_t>(i), ds.GroupOf(i),
                                std::span<const double>(&coords[at], dim)});
  }
  sink.ObserveBatch(batch);
}

std::unique_ptr<StreamSink> Restored(const StreamSink& sink) {
  auto reader = SnapshotReader::FromBytes(SnapshotBytes(sink));
  EXPECT_TRUE(reader.ok());
  auto restored = RestoreSink(*reader);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  return std::move(restored.value());
}

// The SFDM-2 stream one cached_reads session holds (simulated Adult by sex,
// quotas 10,10, ε = 0.1, dim 6, 6,000 points): full candidates at
// neighbouring guesses hold mostly the same points, so the pooled storage
// is under 30% of what one buffer per candidate holds (it reads 25.1%),
// and it is the same whether the sink was fed point by point, in batches,
// or restored.
TEST(CandidateSharingTest, FrozenPointsStoredOnceOnEveryPath) {
  const Dataset ds = SimulatedAdult(AdultGrouping::kSex, /*seed=*/1, 6000);
  const DistanceBounds bounds = EstimateDistanceBounds(ds, 1000, /*seed=*/1);
  const FairnessConstraint constraint{{10, 10}};
  const StreamingOptions options{0.1, bounds.min, bounds.max};
  auto make = [&] {
    auto sink = Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), options);
    EXPECT_TRUE(sink.ok()) << sink.status().ToString();
    return std::make_unique<Sfdm2>(std::move(sink.value()));
  };
  auto per_element = make();
  FeedPerElement(*per_element, ds);
  auto by_16 = make();
  FeedInBatches(*by_16, ds, 16);
  auto by_500 = make();
  FeedInBatches(*by_500, ds, 500);
  const std::unique_ptr<StreamSink> restored = Restored(*per_element);
  ASSERT_NE(restored, nullptr);

  // What one buffer per candidate holds: the same streaming phase over
  // standalone candidates (group-blind and one per group, capacity k at
  // every guess), each counted on its own.
  const GuessLadder& ladder = per_element->ladder();
  const size_t k = static_cast<size_t>(constraint.TotalK());
  std::vector<StreamingCandidate> blind;
  std::vector<std::vector<StreamingCandidate>> specific(2);
  for (size_t j = 0; j < ladder.size(); ++j) {
    blind.emplace_back(ladder.At(j), k, ds.dim());
    for (auto& row : specific) row.emplace_back(ladder.At(j), k, ds.dim());
  }
  const Metric metric(ds.metric_kind());
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint point = ds.At(i);
    for (size_t j = 0; j < ladder.size(); ++j) {
      blind[j].TryAdd(point, metric);
      specific[static_cast<size_t>(point.group)][j].TryAdd(point, metric);
    }
  }
  size_t per_candidate = 0;
  size_t full = 0;
  for (size_t j = 0; j < ladder.size(); ++j) {
    for (const StreamingCandidate* c :
         {&blind[j], &specific[0][j], &specific[1][j]}) {
      per_candidate += c->points().MemoryBytes();
      full += c->Full() ? 1 : 0;
    }
  }
  ASSERT_GT(full, ladder.size());  // the pool has something to share

  const size_t shared = per_element->CandidateBytes();
  EXPECT_LE(shared * 100, per_candidate * 30)
      << shared << " B pooled against " << per_candidate
      << " B per candidate";
  EXPECT_EQ(by_16->CandidateBytes(), shared);
  EXPECT_EQ(by_500->CandidateBytes(), shared);
  EXPECT_EQ(dynamic_cast<const Sfdm2&>(*restored).CandidateBytes(), shared);

  ExpectSameState(*per_element, *by_16);
  ExpectSameState(*per_element, *by_500);
  ExpectSameState(*per_element, *restored);
}

// Two full candidates with the same ids are not equal when their
// coordinates differ: a session without the exactly-once guard may re-send
// an id with other coordinates, and each guess must keep the points it
// admitted.
TEST(CandidateSharingTest, EqualIdsWithOtherCoordinatesAreNotShared) {
  StreamingOptions options;
  options.d_min = 0.5;
  options.d_max = 8.0;
  auto sink = StreamingDm::Create(/*k=*/2, /*dim=*/1, MetricKind::kEuclidean,
                                  options);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  // Guesses up to 1 fill with {(1, 0), (2, 1)}; guesses in (1, 5] reject
  // (2, 1) and fill with {(1, 0), (2, 5)} instead.
  const double x[] = {0.0, 1.0, 5.0};
  const StreamPoint stream[] = {{1, 0, {&x[0], 1}},
                                {2, 0, {&x[1], 1}},
                                {2, 0, {&x[2], 1}}};
  for (const StreamPoint& point : stream) sink->Observe(point);

  const auto solution = sink->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(solution->diversity, 5.0);
  EXPECT_EQ(solution->points.CoordAt(1, 0), 5.0);
  EXPECT_EQ(sink->StoredElements(), 2u);
  const std::unique_ptr<StreamSink> restored = Restored(*sink);
  ASSERT_NE(restored, nullptr);
  ExpectSameState(*sink, *restored);
  EXPECT_EQ(dynamic_cast<const StreamingDm&>(*restored).CandidateBytes(),
            sink->CandidateBytes());
}

// Every fixed-ladder kind: one contiguous batch (replayed in place), the
// same points as a scattered copy (repacked) and per-element Observe reach
// the same snapshot bytes and Solve() output.
TEST(CandidateSharingTest, ContiguousScatteredAndPerElementFeedsAgree) {
  BlobsOptions blobs;
  blobs.n = 500;
  blobs.dim = 3;
  blobs.num_groups = 2;
  blobs.seed = 23;
  const Dataset ds = MakeBlobs(blobs);
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  const std::string bounds =
      " dmin=" + std::to_string(b.min) + " dmax=" + std::to_string(b.max);
  for (const std::string spec :
       {"algo=streaming_dm dim=3 k=6", "algo=sfdm1 dim=3 quotas=3,3",
        "algo=sfdm2 dim=3 quotas=4,2", "algo=sharded dim=3 k=6 shards=3"}) {
    SCOPED_TRACE(spec);
    auto contiguous = MakeSinkFromSpec(spec + bounds);
    auto scattered = MakeSinkFromSpec(spec + bounds);
    auto per_element = MakeSinkFromSpec(spec + bounds);
    ASSERT_TRUE(contiguous.ok()) << contiguous.status().ToString();
    ASSERT_TRUE(scattered.ok() && per_element.ok());
    FeedInBatches(**contiguous, ds, ds.size());
    FeedScattered(**scattered, ds);
    FeedPerElement(**per_element, ds);
    ExpectSameState(**per_element, **contiguous);
    ExpectSameState(**per_element, **scattered);
  }
}

}  // namespace
}  // namespace fdm
