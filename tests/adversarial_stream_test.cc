// Adversarial stream orders and degenerate data for the streaming
// algorithms. The guess-ladder construction makes SFDM1/SFDM2 guarantees
// order-oblivious, so fairness and the approximation bounds must survive
// the worst arrival patterns: sorted coordinates, group-segregated
// arrival, duplicate floods, and near-duplicate clusters.

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "core/diversity.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "exact/brute_force.h"
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

/// Orders: 0 = by x-coordinate ascending, 1 = descending, 2 = all of group
/// 0 first then group 1..., 3 = groups interleaved worst-case (rarest
/// group last).
std::vector<size_t> AdversarialOrder(const Dataset& ds, int variant) {
  std::vector<size_t> order(ds.size());
  std::iota(order.begin(), order.end(), size_t{0});
  switch (variant) {
    case 0:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return ds.Point(a)[0] < ds.Point(b)[0];
      });
      break;
    case 1:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return ds.Point(a)[0] > ds.Point(b)[0];
      });
      break;
    case 2:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return ds.GroupOf(a) < ds.GroupOf(b);
      });
      break;
    case 3:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return ds.GroupOf(a) > ds.GroupOf(b);
      });
      break;
    default:
      break;
  }
  return order;
}

class AdversarialOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialOrderTest, Sfdm1StaysFairAndBounded) {
  const int variant = GetParam();
  BlobsOptions opt;
  opt.n = 600;
  opt.num_groups = 2;
  opt.seed = 41;
  const Dataset ds = MakeBlobs(opt);
  FairnessConstraint c;
  c.quotas = {4, 4};
  auto algo = Sfdm1::Create(c, 2, MetricKind::kEuclidean, OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : AdversarialOrder(ds, variant)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  EXPECT_GT(solution->diversity, 0.0);
}

TEST_P(AdversarialOrderTest, Sfdm2StaysFairAndBounded) {
  const int variant = GetParam();
  BlobsOptions opt;
  opt.n = 800;
  opt.num_groups = 4;
  opt.seed = 43;
  const Dataset ds = MakeBlobs(opt);
  FairnessConstraint c;
  c.quotas = {2, 2, 2, 2};
  auto algo = Sfdm2::Create(c, 2, MetricKind::kEuclidean, OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : AdversarialOrder(ds, variant)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  EXPECT_GT(solution->diversity, 0.0);
}

TEST_P(AdversarialOrderTest, TheoremTwoSurvivesWorstOrder) {
  // The approximation bound is order-independent; verify on a tiny
  // instance against the exact optimum under every adversarial order.
  const int variant = GetParam();
  BlobsOptions opt;
  opt.n = 13;
  opt.num_groups = 2;
  opt.seed = 47;
  const Dataset ds = MakeBlobs(opt);
  FairnessConstraint c;
  c.quotas = {2, 2};
  if (!c.ValidateAgainst(ds.GroupSizes()).ok()) {
    GTEST_SKIP() << "instance infeasible";
  }
  const ExactSolution exact = ExactFairDiversityMaximization(ds, c);
  ASSERT_GT(exact.diversity, 0.0);
  const double epsilon = 0.1;
  auto algo = Sfdm1::Create(c, 2, MetricKind::kEuclidean,
                            OptionsFor(ds, epsilon));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : AdversarialOrder(ds, variant)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok());
  EXPECT_GE(solution->diversity,
            (1.0 - epsilon) / 4.0 * exact.diversity - 1e-9)
      << "order variant " << variant;
}

std::string OrderVariantName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"sorted_asc", "sorted_desc", "groups_fwd",
                                 "groups_rev"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Orders, AdversarialOrderTest,
                         ::testing::Values(0, 1, 2, 3), OrderVariantName);

TEST(DegenerateStreamTest, DuplicateFloodStillSolves) {
  // 95% of the stream is one repeated point; the remaining 5% carry all
  // the diversity. Candidates must not be clogged by duplicates
  // (d(x,S) = 0 < µ rejects them).
  Dataset ds("flood", 1, 2, MetricKind::kEuclidean);
  Rng rng(51);
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextDouble() < 0.95) {
      ds.Add(std::vector<double>{0.0}, static_cast<int32_t>(i % 2));
    } else {
      ds.Add(std::vector<double>{rng.NextDouble(1.0, 100.0)},
             static_cast<int32_t>(i % 2));
    }
  }
  FairnessConstraint c;
  c.quotas = {3, 3};
  auto algo = Sfdm1::Create(c, 1, MetricKind::kEuclidean, OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  EXPECT_GT(solution->diversity, 0.0);
}

TEST(DegenerateStreamTest, TightClusterPairs) {
  // Points come in ε-close pairs with opposite groups: the fair optimum
  // pairs up clusters. Checks SFDM2's clustering step doesn't collapse
  // legitimate structure.
  Dataset ds("pairs", 2, 2, MetricKind::kEuclidean);
  Rng rng(53);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    ds.Add(std::vector<double>{x, y}, 0);
    ds.Add(std::vector<double>{x + 1e-4, y}, 1);
  }
  FairnessConstraint c;
  c.quotas = {4, 4};
  auto algo = Sfdm2::Create(c, 2, MetricKind::kEuclidean, OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), 1)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
}

TEST(DegenerateStreamTest, AngularMetricEndToEnd) {
  // Lyrics-like: sparse simplex vectors, angular distance, skewed groups,
  // small ε (large angular ∆ is impossible — distances are <= π/2).
  Dataset ds("simplex", 10, 3, MetricKind::kAngular);
  Rng rng(57);
  std::vector<double> p(10);
  for (int i = 0; i < 600; ++i) {
    double sum = 0.0;
    for (auto& v : p) {
      v = rng.NextGamma(0.15);
      sum += v;
    }
    for (auto& v : p) v /= sum;
    const double u = rng.NextDouble();
    ds.Add(p, u < 0.6 ? 0 : (u < 0.9 ? 1 : 2));
  }
  FairnessConstraint c;
  c.quotas = {3, 3, 3};
  auto algo = Sfdm2::Create(c, 10, MetricKind::kAngular,
                            OptionsFor(ds, 0.05));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), 2)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  EXPECT_GT(solution->diversity, 0.0);
  EXPECT_LE(solution->diversity, std::acos(0.0) + 1e-9);
}

TEST(DegenerateStreamTest, SingletonGroupQuota) {
  // One group has exactly quota-many elements in the whole stream: every
  // one of them must be found and kept.
  Dataset ds("scarce", 1, 2, MetricKind::kEuclidean);
  Rng rng(59);
  for (int i = 0; i < 500; ++i) {
    ds.Add(std::vector<double>{rng.NextDouble(0, 100)}, 0);
  }
  ds.Add(std::vector<double>{42.0}, 1);
  ds.Add(std::vector<double>{77.0}, 1);
  FairnessConstraint c;
  c.quotas = {4, 2};
  auto algo = Sfdm1::Create(c, 1, MetricKind::kEuclidean, OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), 3)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  // Both scarce-group elements must appear.
  bool has_42 = false;
  bool has_77 = false;
  for (size_t i = 0; i < solution->points.size(); ++i) {
    if (solution->points.GroupAt(i) == 1) {
      has_42 |= solution->points.CoordAt(i, 0) == 42.0;
      has_77 |= solution->points.CoordAt(i, 0) == 77.0;
    }
  }
  EXPECT_TRUE(has_42);
  EXPECT_TRUE(has_77);
}

TEST(DegenerateStreamTest, HighDimensionalManhattan) {
  // CelebA-like binary cube: integer distances, many ties.
  Dataset ds("cube", 30, 2, MetricKind::kManhattan);
  Rng rng(61);
  std::vector<double> p(30);
  for (int i = 0; i < 800; ++i) {
    for (auto& v : p) v = rng.NextDouble() < 0.35 ? 1.0 : 0.0;
    ds.Add(p, static_cast<int32_t>(rng.NextBounded(2)));
  }
  FairnessConstraint c;
  c.quotas = {5, 5};
  auto algo = Sfdm1::Create(c, 30, MetricKind::kManhattan, OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), 4)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
  // Manhattan distances on the binary cube are integers.
  EXPECT_DOUBLE_EQ(solution->diversity,
                   std::round(solution->diversity));
}

}  // namespace
}  // namespace fdm
