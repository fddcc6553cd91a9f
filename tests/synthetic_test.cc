#include "data/synthetic.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(BlobsTest, RespectsRequestedShape) {
  BlobsOptions opt;
  opt.n = 1000;
  opt.dim = 2;
  opt.num_groups = 4;
  opt.seed = 1;
  const Dataset ds = MakeBlobs(opt);
  EXPECT_EQ(ds.size(), 1000u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_EQ(ds.num_groups(), 4);
  EXPECT_EQ(ds.metric_kind(), MetricKind::kEuclidean);
}

TEST(BlobsTest, AllGroupsPopulatedRoughlyUniformly) {
  BlobsOptions opt;
  opt.n = 10000;
  opt.num_groups = 10;
  opt.seed = 2;
  const Dataset ds = MakeBlobs(opt);
  const auto sizes = ds.GroupSizes();
  for (const size_t s : sizes) {
    EXPECT_NEAR(static_cast<double>(s), 1000.0, 150.0);
  }
}

TEST(BlobsTest, PointsStayNearBox) {
  // Centers in [-10,10]^2 with unit stddev: points should lie within a
  // few sigmas of the box.
  BlobsOptions opt;
  opt.n = 5000;
  opt.seed = 3;
  const Dataset ds = MakeBlobs(opt);
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_GT(ds.Point(i)[d], -10.0 - 6.0);
      EXPECT_LT(ds.Point(i)[d], 10.0 + 6.0);
    }
  }
}

TEST(BlobsTest, DeterministicForSeed) {
  BlobsOptions opt;
  opt.n = 100;
  opt.seed = 42;
  const Dataset a = MakeBlobs(opt);
  const Dataset b = MakeBlobs(opt);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.GroupOf(i), b.GroupOf(i));
    EXPECT_DOUBLE_EQ(a.Point(i)[0], b.Point(i)[0]);
  }
}

TEST(BlobsTest, SeedChangesData) {
  BlobsOptions a_opt;
  a_opt.n = 100;
  a_opt.seed = 1;
  BlobsOptions b_opt = a_opt;
  b_opt.seed = 2;
  const Dataset a = MakeBlobs(a_opt);
  const Dataset b = MakeBlobs(b_opt);
  bool any_diff = false;
  for (size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.Point(i)[0] != b.Point(i)[0];
  }
  EXPECT_TRUE(any_diff);
}

TEST(BlobsTest, ClusterStructureExists) {
  // With 10 tight blobs in a [-10,10] box, the mean pairwise distance must
  // far exceed the within-blob scale — a sanity check that points are not
  // uniform noise.
  BlobsOptions opt;
  opt.n = 400;
  opt.num_blobs = 10;
  opt.stddev = 0.2;
  opt.seed = 4;
  const Dataset ds = MakeBlobs(opt);
  double sum = 0.0;
  int pairs = 0;
  int close_pairs = 0;
  for (size_t i = 0; i < ds.size(); i += 4) {
    for (size_t j = i + 1; j < ds.size(); j += 4) {
      const double d = ds.Distance(i, j);
      sum += d;
      ++pairs;
      if (d < 1.0) ++close_pairs;
    }
  }
  EXPECT_GT(sum / pairs, 3.0);   // blobs are spread out
  EXPECT_GT(close_pairs, 0);     // but blob-mates are close
}

TEST(SampleGroupsTest, RespectsProportions) {
  const auto groups = SampleGroups(100000, {0.7, 0.2, 0.1}, 11);
  std::vector<int> counts(3, 0);
  for (const int32_t g : groups) ++counts[static_cast<size_t>(g)];
  EXPECT_NEAR(counts[0], 70000, 1500);
  EXPECT_NEAR(counts[1], 20000, 1200);
  EXPECT_NEAR(counts[2], 10000, 1000);
}

TEST(SampleGroupsTest, SingleGroup) {
  const auto groups = SampleGroups(100, {1.0}, 1);
  for (const int32_t g : groups) EXPECT_EQ(g, 0);
}

TEST(SampleGroupsTest, UnnormalizedWeightsAccepted) {
  const auto groups = SampleGroups(50000, {3.0, 1.0}, 13);
  int count0 = 0;
  for (const int32_t g : groups) count0 += (g == 0);
  EXPECT_NEAR(count0, 37500, 800);
}

TEST(UniformSquareTest, PointsInUnitSquare) {
  const Dataset ds = MakeUniformSquare(500, 7);
  EXPECT_EQ(ds.size(), 500u);
  EXPECT_EQ(ds.num_groups(), 1);
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.Point(i)[0], 0.0);
    EXPECT_LT(ds.Point(i)[0], 1.0);
    EXPECT_GE(ds.Point(i)[1], 0.0);
    EXPECT_LT(ds.Point(i)[1], 1.0);
  }
}

}  // namespace
}  // namespace fdm
