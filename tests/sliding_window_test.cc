#include "core/sliding_window.h"

#include <gtest/gtest.h>

#include "core/diversity.h"
#include "core/sfdm2.h"
#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace fdm {
namespace {

StreamingOptions OptionsFor(const Dataset& ds, double epsilon = 0.1) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  StreamingOptions o;
  o.epsilon = epsilon;
  o.d_min = b.min;
  o.d_max = b.max;
  return o;
}

TEST(SlidingWindowTest, CreateValidates) {
  auto factory = [] {
    StreamingOptions o;
    o.epsilon = 0.1;
    o.d_min = 1.0;
    o.d_max = 10.0;
    return StreamingDm::Create(3, 2, MetricKind::kEuclidean, o);
  };
  EXPECT_FALSE(SlidingWindow<StreamingDm>::Create(0, 1, factory).ok());
  EXPECT_FALSE(SlidingWindow<StreamingDm>::Create(10, 0, factory).ok());
  EXPECT_FALSE(SlidingWindow<StreamingDm>::Create(10, 11, factory).ok());
  EXPECT_FALSE(SlidingWindow<StreamingDm>::Create(10, 2, nullptr).ok());
  EXPECT_TRUE(SlidingWindow<StreamingDm>::Create(10, 2, factory).ok());
}

TEST(SlidingWindowTest, CreateSurfacesFactoryErrors) {
  auto broken_factory = [] {
    StreamingOptions o;  // d_min = 0: invalid
    return StreamingDm::Create(3, 2, MetricKind::kEuclidean, o);
  };
  EXPECT_FALSE(
      SlidingWindow<StreamingDm>::Create(10, 2, broken_factory).ok());
}

TEST(SlidingWindowTest, SolutionsStayInsideWindow) {
  // The defining correctness property: every reported element id was
  // observed within the last `window` elements, at every query point.
  BlobsOptions opt;
  opt.n = 3000;
  opt.seed = 3;
  const Dataset ds = MakeBlobs(opt);
  const StreamingOptions streaming = OptionsFor(ds);
  const int64_t window = 500;
  auto sw = SlidingWindow<StreamingDm>::Create(window, 5, [&] {
    return StreamingDm::Create(8, 2, MetricKind::kEuclidean, streaming);
  });
  ASSERT_TRUE(sw.ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    sw->Observe(ds.At(i));
    ASSERT_TRUE(sw->error().ok());
    if ((i + 1) % 250 == 0 && static_cast<int64_t>(i) >= window) {
      const auto solution = sw->Solve();
      if (!solution.ok()) continue;  // window may lack k spread points
      const int64_t window_start = static_cast<int64_t>(i) + 1 - window;
      for (const int64_t id : solution->Ids()) {
        EXPECT_GE(id, window_start) << "expired element at position " << i;
        EXPECT_LE(id, static_cast<int64_t>(i));
      }
    }
  }
}

TEST(SlidingWindowTest, AdaptsToDistributionShift) {
  // First half of the stream lives in [0,1]^2, second half in
  // [100,101]^2. After the shift has filled the window, the solution must
  // consist purely of new-regime points — a plain one-pass algorithm
  // would keep stale far-apart points forever.
  Rng rng(7);
  const int64_t window = 400;
  StreamingOptions streaming;
  streaming.epsilon = 0.1;
  streaming.d_min = 0.001;
  streaming.d_max = 300.0;
  auto sw = SlidingWindow<StreamingDm>::Create(window, 4, [&] {
    return StreamingDm::Create(5, 2, MetricKind::kEuclidean, streaming);
  });
  ASSERT_TRUE(sw.ok());
  int64_t id = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::vector<double> c{rng.NextDouble(), rng.NextDouble()};
    sw->Observe(StreamPoint{id++, 0, std::span<const double>(c)});
  }
  for (int i = 0; i < 1500; ++i) {
    const std::vector<double> c{100.0 + rng.NextDouble(),
                                100.0 + rng.NextDouble()};
    sw->Observe(StreamPoint{id++, 0, std::span<const double>(c)});
  }
  ASSERT_TRUE(sw->error().ok());
  const auto solution = sw->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  for (size_t i = 0; i < solution->points.size(); ++i) {
    EXPECT_GE(solution->points.CoordAt(i, 0), 100.0)
        << "stale pre-shift element survived in the window solution";
  }
}

TEST(SlidingWindowTest, ReplicaCountBounded) {
  BlobsOptions opt;
  opt.n = 5000;
  opt.seed = 9;
  const Dataset ds = MakeBlobs(opt);
  const StreamingOptions streaming = OptionsFor(ds);
  const int64_t checkpoints = 6;
  auto sw = SlidingWindow<StreamingDm>::Create(600, checkpoints, [&] {
    return StreamingDm::Create(5, 2, MetricKind::kEuclidean, streaming);
  });
  ASSERT_TRUE(sw.ok());
  size_t max_live = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    sw->Observe(ds.At(i));
    max_live = std::max(max_live, sw->live_replicas());
  }
  ASSERT_TRUE(sw->error().ok());
  EXPECT_LE(max_live, static_cast<size_t>(checkpoints) + 1);
  EXPECT_EQ(sw->ObservedElements(), static_cast<int64_t>(ds.size()));
}

TEST(SlidingWindowTest, MoreCheckpointsNeverWorseCoverage) {
  // With c checkpoints the answering replica covers >= window·(1−1/c);
  // verify the suffix-coverage accounting via the replica start positions
  // implicitly: diversity with c=8 should be >= diversity with c=1 most
  // of the time. We assert it on a fixed stream (deterministic).
  BlobsOptions opt;
  opt.n = 4000;
  opt.seed = 11;
  const Dataset ds = MakeBlobs(opt);
  const StreamingOptions streaming = OptionsFor(ds);
  auto run = [&](int64_t checkpoints) {
    auto sw = SlidingWindow<StreamingDm>::Create(1000, checkpoints, [&] {
      return StreamingDm::Create(8, 2, MetricKind::kEuclidean, streaming);
    });
    for (size_t i = 0; i < ds.size(); ++i) {
      (void)sw->Observe(ds.At(i));
    }
    const auto solution = sw->Solve();
    return solution.ok() ? solution->diversity : 0.0;
  };
  const double coarse = run(1);
  const double fine = run(8);
  EXPECT_GT(fine, 0.0);
  // Not a theorem per-instance, but on blob data with a long window the
  // 8-checkpoint cover sees >= 7/8 of the window vs a potentially tiny
  // suffix for c=1; allow a small tolerance.
  EXPECT_GE(fine, 0.8 * coarse);
}

TEST(SlidingWindowTest, WorksWithSfdm2ForFairWindows) {
  // Fair sliding-window selection: the future-work combination.
  BlobsOptions opt;
  opt.n = 4000;
  opt.num_groups = 3;
  opt.seed = 13;
  const Dataset ds = MakeBlobs(opt);
  const StreamingOptions streaming = OptionsFor(ds);
  FairnessConstraint c;
  c.quotas = {2, 2, 2};
  auto sw = SlidingWindow<Sfdm2>::Create(800, 4, [&] {
    return Sfdm2::Create(c, 2, MetricKind::kEuclidean, streaming);
  });
  ASSERT_TRUE(sw.ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    sw->Observe(ds.At(i));
  }
  ASSERT_TRUE(sw->error().ok());
  const auto solution = sw->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  for (const int64_t id : solution->Ids()) {
    EXPECT_GE(id, static_cast<int64_t>(ds.size()) - 800);
  }
}

TEST(SlidingWindowTest, SolveBeforeAnyObservationFails) {
  StreamingOptions streaming;
  streaming.epsilon = 0.1;
  streaming.d_min = 1.0;
  streaming.d_max = 10.0;
  auto sw = SlidingWindow<StreamingDm>::Create(100, 2, [&] {
    return StreamingDm::Create(3, 1, MetricKind::kEuclidean, streaming);
  });
  ASSERT_TRUE(sw.ok());
  EXPECT_FALSE(sw->Solve().ok());
}

}  // namespace
}  // namespace fdm
