// The StreamSink contract: ingesting a stream through ObserveBatch — any
// batch sizes, at any process-wide width — yields exactly the same Solve()
// output as per-element Observe, for every streaming algorithm.

#include "core/stream_sink.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_streaming_dm.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/sharded_stream.h"
#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "scoped_width.h"
#include "util/rng.h"

namespace fdm {
namespace {

Dataset TestData(int m, uint64_t seed, size_t n = 400) {
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

/// Feeds `ds` in the permutation given by `seed`, chopped into batches of
/// pseudo-random sizes in [1, 97] (batch size 0 = per-element Observe).
void Feed(StreamSink& sink, const Dataset& ds, uint64_t seed,
          bool batched) {
  const std::vector<size_t> order = StreamOrder(ds.size(), seed);
  if (!batched) {
    for (const size_t row : order) sink.Observe(ds.At(row));
    return;
  }
  Rng rng(seed * 31 + 7);
  size_t pos = 0;
  while (pos < order.size()) {
    const size_t size =
        std::min(order.size() - pos, 1 + rng.NextBounded(97));
    std::vector<StreamPoint> batch;
    batch.reserve(size);
    for (size_t i = 0; i < size; ++i) batch.push_back(ds.At(order[pos + i]));
    sink.ObserveBatch(batch);
    pos += size;
  }
}

/// Bit-identical outcome check: same ids in the same order, same
/// diversity, same µ, same storage and observed counts.
void ExpectIdentical(const StreamSink& a, const StreamSink& b) {
  const auto sa = a.Solve();
  const auto sb = b.Solve();
  ASSERT_EQ(sa.ok(), sb.ok());
  EXPECT_EQ(a.ObservedElements(), b.ObservedElements());
  EXPECT_EQ(a.StoredElements(), b.StoredElements());
  if (!sa.ok()) return;
  EXPECT_EQ(sa->Ids(), sb->Ids());
  EXPECT_EQ(sa->diversity, sb->diversity);  // exact, not approximate
  EXPECT_EQ(sa->mu, sb->mu);
}

struct BatchCase {
  uint64_t seed;
  int threads;  // process-wide width while the test runs
};

class StreamSinkBatchTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(StreamSinkBatchTest, StreamingDmBatchEqualsSequential) {
  const BatchCase param = GetParam();
  const ScopedWidth width(param.threads);
  const Dataset ds = TestData(2, 100 + param.seed);
  auto sequential = StreamingDm::Create(8, ds.dim(), ds.metric_kind(),
                                        OptionsFor(ds));
  auto batched = StreamingDm::Create(8, ds.dim(), ds.metric_kind(),
                                     OptionsFor(ds));
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(batched.ok());
  Feed(*sequential, ds, param.seed, /*batched=*/false);
  Feed(*batched, ds, param.seed, /*batched=*/true);
  ExpectIdentical(*sequential, *batched);
}

TEST_P(StreamSinkBatchTest, Sfdm1BatchEqualsSequential) {
  const BatchCase param = GetParam();
  const ScopedWidth width(param.threads);
  const Dataset ds = TestData(2, 200 + param.seed);
  const FairnessConstraint constraint = EqualRepresentation(8, 2).value();
  auto sequential = Sfdm1::Create(constraint, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  auto batched = Sfdm1::Create(constraint, ds.dim(), ds.metric_kind(),
                               OptionsFor(ds));
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(batched.ok());
  Feed(*sequential, ds, param.seed, /*batched=*/false);
  Feed(*batched, ds, param.seed, /*batched=*/true);
  ExpectIdentical(*sequential, *batched);
}

TEST_P(StreamSinkBatchTest, Sfdm2BatchEqualsSequential) {
  const BatchCase param = GetParam();
  const ScopedWidth width(param.threads);
  const Dataset ds = TestData(3, 300 + param.seed);
  const FairnessConstraint constraint = EqualRepresentation(9, 3).value();
  auto sequential = Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  auto batched = Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(),
                               OptionsFor(ds));
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(batched.ok());
  Feed(*sequential, ds, param.seed, /*batched=*/false);
  Feed(*batched, ds, param.seed, /*batched=*/true);
  ExpectIdentical(*sequential, *batched);
}

TEST_P(StreamSinkBatchTest, ShardedBatchEqualsSequential) {
  const BatchCase param = GetParam();
  const ScopedWidth width(param.threads);
  const Dataset ds = TestData(2, 400 + param.seed, /*n=*/800);
  ShardedStreamingOptions sharding;
  sharding.num_shards = 4;
  auto sequential = ShardedStreamingDm::Create(
      6, ds.dim(), ds.metric_kind(), OptionsFor(ds), sharding);
  auto batched = ShardedStreamingDm::Create(
      6, ds.dim(), ds.metric_kind(), OptionsFor(ds), sharding);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(batched.ok());
  Feed(*sequential, ds, param.seed, /*batched=*/false);
  Feed(*batched, ds, param.seed, /*batched=*/true);
  ExpectIdentical(*sequential, *batched);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, StreamSinkBatchTest,
    ::testing::Values(BatchCase{1, 1}, BatchCase{2, 1}, BatchCase{3, 2},
                      BatchCase{4, 4}, BatchCase{5, 0}, BatchCase{6, 4}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_threads" +
             std::to_string(info.param.threads);
    });

TEST(StreamSinkBatchTest, AdaptiveDefaultBatchEqualsSequential) {
  // AdaptiveStreamingDm inherits the sequential default ObserveBatch
  // (ladder growth is a dependent chain); equivalence must still hold.
  const Dataset ds = TestData(2, 55);
  auto sequential =
      AdaptiveStreamingDm::Create(7, ds.dim(), ds.metric_kind(), 0.1);
  auto batched =
      AdaptiveStreamingDm::Create(7, ds.dim(), ds.metric_kind(), 0.1);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(batched.ok());
  Feed(*sequential, ds, 9, /*batched=*/false);
  Feed(*batched, ds, 9, /*batched=*/true);
  ExpectIdentical(*sequential, *batched);
}

TEST(StreamSinkBatchTest, MixedObserveAndBatchEqualsSequential) {
  // Interleaving Observe and ObserveBatch on the same sink must match the
  // pure per-element run (the batch is not a separate mode, just a chunk).
  const ScopedWidth width(2);
  const Dataset ds = TestData(2, 77);
  auto a = StreamingDm::Create(6, ds.dim(), ds.metric_kind(),
                               OptionsFor(ds));
  auto b = StreamingDm::Create(6, ds.dim(), ds.metric_kind(),
                               OptionsFor(ds));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::vector<size_t> order = StreamOrder(ds.size(), 5);
  std::vector<StreamPoint> batch;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (pos % 3 == 0) {
      a->Observe(ds.At(order[pos]));
    } else {
      batch.push_back(ds.At(order[pos]));
      if (batch.size() == 32) {
        a->ObserveBatch(batch);
        batch.clear();
      }
    }
  }
  // Flush, then replay the same effective element order sequentially.
  if (!batch.empty()) a->ObserveBatch(batch);
  std::vector<size_t> effective;
  std::vector<size_t> deferred;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (pos % 3 == 0) {
      effective.push_back(order[pos]);
    } else {
      deferred.push_back(order[pos]);
      if (deferred.size() == 32) {
        effective.insert(effective.end(), deferred.begin(), deferred.end());
        deferred.clear();
      }
    }
  }
  effective.insert(effective.end(), deferred.begin(), deferred.end());
  for (const size_t row : effective) b->Observe(ds.At(row));
  ExpectIdentical(*a, *b);
}

TEST(StreamSinkBatchTest, PolymorphicUseThroughBasePointer) {
  // The harness-facing shape: algorithms behind unique_ptr<StreamSink>.
  const Dataset ds = TestData(2, 88);
  const FairnessConstraint constraint = EqualRepresentation(6, 2).value();
  std::vector<std::unique_ptr<StreamSink>> sinks;
  {
    auto r = Sfdm1::Create(constraint, ds.dim(), ds.metric_kind(),
                           OptionsFor(ds));
    ASSERT_TRUE(r.ok());
    sinks.push_back(std::make_unique<Sfdm1>(std::move(r.value())));
  }
  {
    auto r = Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(),
                           OptionsFor(ds));
    ASSERT_TRUE(r.ok());
    sinks.push_back(std::make_unique<Sfdm2>(std::move(r.value())));
  }
  for (const auto& sink : sinks) {
    Feed(*sink, ds, 3, /*batched=*/true);
    const auto solution = sink->Solve();
    ASSERT_TRUE(solution.ok()) << solution.status().ToString();
    EXPECT_EQ(solution->points.size(), 6u);
    EXPECT_EQ(sink->ObservedElements(), static_cast<int64_t>(ds.size()));
    EXPECT_GT(sink->StoredElements(), 0u);
  }
}

}  // namespace
}  // namespace fdm
