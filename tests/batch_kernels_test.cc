// Equivalence of the raw-space (sqrt-free, blocked) one-to-many kernels
// against the plain per-pair sqrt forms — the satellite contract of the
// batched ingestion engine: changing the kernel must not change a single
// accept/reject decision.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_candidate.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/rng.h"

namespace fdm {
namespace {

std::vector<double> RandomPoint(Rng& rng, size_t dim, double lo, double hi) {
  std::vector<double> p(dim);
  for (size_t d = 0; d < dim; ++d) p[d] = rng.NextDouble(lo, hi);
  return p;
}

PointBuffer RandomBuffer(Rng& rng, size_t n, size_t dim) {
  PointBuffer buf(dim, n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> p = RandomPoint(rng, dim, -5.0, 5.0);
    buf.Add(StreamPoint{static_cast<int64_t>(i), 0,
                        std::span<const double>(p)});
  }
  return buf;
}

/// The pre-refactor reference: per-pair true distances, no blocking.
double NaiveMinDistance(const PointBuffer& buf, std::span<const double> x,
                        const Metric& metric) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> row(buf.dim());
  for (size_t i = 0; i < buf.size(); ++i) {
    best = std::min(best, metric(x, buf.GatherCoords(i, row)));
  }
  return best;
}

bool NaiveAllAtLeast(const PointBuffer& buf, std::span<const double> x,
                     const Metric& metric, double threshold) {
  std::vector<double> row(buf.dim());
  for (size_t i = 0; i < buf.size(); ++i) {
    if (metric(x, buf.GatherCoords(i, row)) < threshold) return false;
  }
  return true;
}

class BatchKernelsTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(BatchKernelsTest, RawDistanceIsMonotoneSurrogate) {
  const Metric metric(GetParam());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t dim = 1 + rng.NextBounded(8);
    const std::vector<double> a = RandomPoint(rng, dim, -5.0, 5.0);
    const std::vector<double> b = RandomPoint(rng, dim, -5.0, 5.0);
    const double raw = metric.RawDistance(a.data(), b.data(), dim);
    EXPECT_NEAR(metric.FinishDistance(raw), metric(a, b), 1e-12);
  }
}

TEST_P(BatchKernelsTest, MinDistanceMatchesNaiveScan) {
  const Metric metric(GetParam());
  Rng rng(11);
  // Sizes straddle the block width (8) to cover full blocks + remainders.
  for (const size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 37u, 100u}) {
    const size_t dim = 3;
    const PointBuffer buf = RandomBuffer(rng, n, dim);
    const std::vector<double> x = RandomPoint(rng, dim, -5.0, 5.0);
    const double got = buf.MinDistanceTo(x, metric);
    const double want = NaiveMinDistance(buf, x, metric);
    if (n == 0) {
      EXPECT_EQ(got, std::numeric_limits<double>::infinity());
    } else {
      EXPECT_NEAR(got, want, 1e-12) << "n=" << n;
    }
  }
}

TEST_P(BatchKernelsTest, AllAtLeastMatchesNaiveSqrtForm) {
  const Metric metric(GetParam());
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.NextBounded(30);
    const size_t dim = 2 + rng.NextBounded(4);
    const PointBuffer buf = RandomBuffer(rng, n, dim);
    const std::vector<double> x = RandomPoint(rng, dim, -5.0, 5.0);
    // Thresholds around the actual minimum stress the decision boundary.
    const double base = n == 0 ? 1.0 : NaiveMinDistance(buf, x, metric);
    for (const double factor : {0.5, 0.99, 1.01, 2.0}) {
      const double threshold = base * factor;
      EXPECT_EQ(buf.AllAtLeast(x, metric, threshold),
                NaiveAllAtLeast(buf, x, metric, threshold))
          << "trial=" << trial << " threshold=" << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, BatchKernelsTest,
                         ::testing::Values(MetricKind::kEuclidean,
                                           MetricKind::kManhattan,
                                           MetricKind::kAngular),
                         [](const auto& info) {
                           return std::string(MetricKindName(info.param));
                         });

TEST(SquaredThresholdTest, ExactBoundaryDecisionsMatchSqrtForm) {
  // A 3-4-5 triangle: distance exactly 5. `d < µ` must be false for µ = 5
  // in both the sqrt form and the squared form (25 < 25).
  const Metric metric(MetricKind::kEuclidean);
  PointBuffer buf(2, 1);
  const std::vector<double> origin{0.0, 0.0};
  buf.Add(StreamPoint{0, 0, std::span<const double>(origin)});
  const std::vector<double> x{3.0, 4.0};
  EXPECT_TRUE(buf.AllAtLeast(x, metric, 5.0));
  EXPECT_FALSE(buf.AllAtLeast(x, metric, 5.0000001));
  EXPECT_EQ(metric.PrepareThreshold(5.0), 25.0);
  EXPECT_EQ(metric.RawDistance(x.data(), origin.data(), 2), 25.0);
}

TEST(SquaredThresholdTest, TryAddDecisionsMatchSqrtReference) {
  // Replay a random stream through StreamingCandidate::TryAdd (squared
  // comparisons) and through a reference insert using the sqrt form; the
  // kept sets must be identical element by element.
  const Metric metric(MetricKind::kEuclidean);
  Rng rng(17);
  for (const double mu : {0.5, 1.0, 2.5}) {
    StreamingCandidate candidate(mu, /*capacity=*/10, /*dim=*/3);
    PointBuffer reference(3, 10);
    std::vector<double> row(3);
    for (int i = 0; i < 500; ++i) {
      const std::vector<double> p = RandomPoint(rng, 3, -4.0, 4.0);
      const StreamPoint point{i, 0, std::span<const double>(p)};
      const bool kept = candidate.TryAdd(point, metric);
      bool want = reference.size() < 10;
      if (want) {
        for (size_t j = 0; j < reference.size(); ++j) {
          if (metric(point.coords, reference.GatherCoords(j, row)) < mu) {
            want = false;
            break;
          }
        }
      }
      ASSERT_EQ(kept, want) << "element " << i << " mu=" << mu;
      if (want) reference.Add(point);
    }
    ASSERT_EQ(candidate.points().size(), reference.size());
    for (size_t j = 0; j < reference.size(); ++j) {
      EXPECT_EQ(candidate.points().IdAt(j), reference.IdAt(j));
    }
  }
}

}  // namespace
}  // namespace fdm
