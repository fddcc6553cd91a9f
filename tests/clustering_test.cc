#include "core/clustering.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdm {
namespace {

PointBuffer Line(const std::vector<double>& xs) {
  PointBuffer buf(1, xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const std::vector<double> c{xs[i]};
    buf.Add(StreamPoint{static_cast<int64_t>(i), 0,
                        std::span<const double>(c)});
  }
  return buf;
}

TEST(ThresholdClustersTest, SeparatedPointsStaySingletons) {
  const PointBuffer buf = Line({0.0, 10.0, 20.0});
  const Metric m(MetricKind::kEuclidean);
  const auto labels = ThresholdClusters(buf, m, 1.0);
  EXPECT_EQ(labels, (std::vector<int>{0, 1, 2}));
}

TEST(ThresholdClustersTest, ClosePointsMerge) {
  const PointBuffer buf = Line({0.0, 0.5, 10.0});
  const Metric m(MetricKind::kEuclidean);
  const auto labels = ThresholdClusters(buf, m, 1.0);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(ThresholdClustersTest, ThresholdIsStrict) {
  // Merge condition is d < threshold, not <= (Algorithm 3, line 14).
  const PointBuffer buf = Line({0.0, 1.0});
  const Metric m(MetricKind::kEuclidean);
  EXPECT_NE(ThresholdClusters(buf, m, 1.0)[0],
            ThresholdClusters(buf, m, 1.0)[1]);
  EXPECT_EQ(ThresholdClusters(buf, m, 1.0001)[0],
            ThresholdClusters(buf, m, 1.0001)[1]);
}

TEST(ThresholdClustersTest, TransitiveChainsMerge) {
  // Chain 0 - 0.9 - 1.8 - 2.7: consecutive gaps below threshold merge the
  // whole chain even though endpoints are far apart (single linkage).
  const PointBuffer buf = Line({0.0, 0.9, 1.8, 2.7});
  const Metric m(MetricKind::kEuclidean);
  const auto labels = ThresholdClusters(buf, m, 1.0);
  EXPECT_EQ(labels, (std::vector<int>{0, 0, 0, 0}));
}

TEST(ThresholdClustersTest, InterClusterSeparationGuarantee) {
  // Lemma 3(i): after clustering at threshold t, any two points in
  // different clusters are at distance >= t.
  Rng rng(7);
  PointBuffer buf(2, 60);
  for (int64_t i = 0; i < 60; ++i) {
    const std::vector<double> c{rng.NextDouble(0, 4), rng.NextDouble(0, 4)};
    buf.Add(StreamPoint{i, 0, std::span<const double>(c)});
  }
  const Metric m(MetricKind::kEuclidean);
  const double t = 0.35;
  const auto labels = ThresholdClusters(buf, m, t);
  std::vector<double> a(buf.dim());
  std::vector<double> b(buf.dim());
  for (size_t i = 0; i < buf.size(); ++i) {
    for (size_t j = i + 1; j < buf.size(); ++j) {
      if (labels[i] != labels[j]) {
        EXPECT_GE(m(buf.GatherCoords(i, a), buf.GatherCoords(j, b)), t);
      }
    }
  }
}

TEST(ThresholdClustersTest, LabelsAreDense) {
  Rng rng(9);
  PointBuffer buf(1, 40);
  for (int64_t i = 0; i < 40; ++i) {
    const std::vector<double> c{rng.NextDouble(0, 10)};
    buf.Add(StreamPoint{i, 0, std::span<const double>(c)});
  }
  const Metric m(MetricKind::kEuclidean);
  const auto labels = ThresholdClusters(buf, m, 0.5);
  int max_label = -1;
  for (const int l : labels) {
    EXPECT_GE(l, 0);
    max_label = std::max(max_label, l);
  }
  std::vector<bool> seen(static_cast<size_t>(max_label) + 1, false);
  for (const int l : labels) seen[static_cast<size_t>(l)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(ThresholdClustersTest, EmptyAndSingleton) {
  PointBuffer empty(1, 0);
  const Metric m(MetricKind::kEuclidean);
  EXPECT_TRUE(ThresholdClusters(empty, m, 1.0).empty());
  const PointBuffer one = Line({5.0});
  EXPECT_EQ(ThresholdClusters(one, m, 1.0), (std::vector<int>{0}));
}

TEST(ThresholdClustersTest, ZeroThresholdKeepsDistinctApart) {
  const PointBuffer buf = Line({0.0, 0.0, 1e-12});
  const Metric m(MetricKind::kEuclidean);
  // d < 0 never holds, so even exact duplicates stay separate at t = 0.
  const auto labels = ThresholdClusters(buf, m, 0.0);
  EXPECT_EQ(labels, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace fdm
