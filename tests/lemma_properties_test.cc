// Direct verification of the paper's per-guess guarantees on the *winning*
// guess µ reported by each algorithm (Solution::mu):
//
//   Algorithm 1 (Theorem 1, case 1): a full candidate S_µ has div >= µ.
//   SFDM1 (Lemma 2): the balanced candidate has div >= µ/2.
//   SFDM2 (Lemma 4): the augmented solution has div >= µ/(m+1).
//
// These are stronger, more diagnostic checks than the end-to-end ratios:
// they pin the exact internal invariant each proof rests on, across
// metrics, group counts, quota shapes, and stream orders.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/clustering.h"
#include "core/diversity.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/streaming_candidate.h"
#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace fdm {
namespace {

struct LemmaCase {
  uint64_t seed;
  MetricKind metric;
  int m;
};

Dataset RandomDataset(const LemmaCase& param, size_t n) {
  Rng rng(param.seed * 7919ULL + 13);
  Dataset ds("lemma", 4, param.m, param.metric);
  std::vector<double> p(4);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = rng.NextDouble(0.05, 1.0);
    ds.Add(p, static_cast<int32_t>(rng.NextBounded(param.m)));
  }
  return ds;
}

StreamingOptions OptionsFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  StreamingOptions o;
  o.epsilon = 0.1;
  o.d_min = b.min;
  o.d_max = b.max;
  return o;
}

class LemmaPropertyTest : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(LemmaPropertyTest, AlgorithmOneWinnerCertifiesItsGuess) {
  const LemmaCase param = GetParam();
  const Dataset ds = RandomDataset(param, 300);
  auto algo =
      StreamingDm::Create(8, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), param.seed)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  // Theorem 1 case 1: the returned candidate was full, so div >= µ.
  EXPECT_GE(solution->diversity, solution->mu - 1e-12);
}

TEST_P(LemmaPropertyTest, LemmaTwoBalancedCandidateHalfGuess) {
  const LemmaCase param = GetParam();
  if (param.m != 2) GTEST_SKIP() << "SFDM1 is m = 2 only";
  const Dataset ds = RandomDataset(param, 400);
  FairnessConstraint c;
  c.quotas = {3, 5};  // uneven on purpose: the swap loop must fire
  auto algo = Sfdm1::Create(c, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), param.seed + 1)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  // Lemma 2: div(S_µ) >= µ/2 after balancing.
  EXPECT_GE(solution->diversity, solution->mu / 2.0 - 1e-12);
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
}

TEST_P(LemmaPropertyTest, LemmaFourAugmentedSolutionOverMPlusOne) {
  const LemmaCase param = GetParam();
  const Dataset ds = RandomDataset(param, 500);
  FairnessConstraint c;
  c.quotas.assign(static_cast<size_t>(param.m), 2);
  c.quotas[0] = 4;  // uneven
  if (!c.ValidateAgainst(ds.GroupSizes()).ok()) {
    GTEST_SKIP() << "instance infeasible";
  }
  auto algo = Sfdm2::Create(c, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (const size_t row : StreamOrder(ds.size(), param.seed + 2)) {
    algo->Observe(ds.At(row));
  }
  const auto solution = algo->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  // Lemma 4 / property (i): every pair in the solution is in a different
  // cluster, hence div >= µ/(m+1).
  EXPECT_GE(solution->diversity,
            solution->mu / static_cast<double>(param.m + 1) - 1e-12);
  EXPECT_TRUE(SatisfiesQuotas(solution->points, c.quotas));
}

std::vector<LemmaCase> LemmaGrid() {
  std::vector<LemmaCase> cases;
  uint64_t seed = 1;
  for (const MetricKind metric : {MetricKind::kEuclidean,
                                  MetricKind::kManhattan,
                                  MetricKind::kAngular}) {
    for (const int m : {2, 3, 5}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back(LemmaCase{seed++, metric, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LemmaPropertyTest, ::testing::ValuesIn(LemmaGrid()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             std::string(MetricKindName(info.param.metric)) + "_m" +
             std::to_string(info.param.m);
    });

// ---------------------------------------------------------------------------
// Lemma 3 directly: cluster the union of one full blind candidate and m
// full group candidates at µ/(m+1) and check all three properties.
// ---------------------------------------------------------------------------

TEST(LemmaThreeTest, ClusterPropertiesOnRealCandidates) {
  Rng rng(4242);
  const int m = 3;
  const int k = 9;
  Dataset ds("l3", 3, m, MetricKind::kEuclidean);
  std::vector<double> p(3);
  for (int i = 0; i < 800; ++i) {
    for (auto& v : p) v = rng.NextDouble(0, 10);
    ds.Add(p, static_cast<int32_t>(rng.NextBounded(m)));
  }
  const Metric metric = ds.metric();
  const double mu = 1.2;

  // Build the candidates exactly as SFDM2's stream phase does.
  StreamingCandidate blind(mu, static_cast<size_t>(k), 3);
  std::vector<StreamingCandidate> per_group;
  for (int g = 0; g < m; ++g) {
    per_group.emplace_back(mu, static_cast<size_t>(k), 3);
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint x = ds.At(i);
    blind.TryAdd(x, metric);
    per_group[static_cast<size_t>(x.group)].TryAdd(x, metric);
  }

  // S_all = dedup union.
  PointBuffer all(3, static_cast<size_t>(k * (m + 1)));
  std::set<int64_t> seen;
  auto add_from = [&](const StreamingCandidate& c) {
    for (size_t i = 0; i < c.points().size(); ++i) {
      if (seen.insert(c.points().IdAt(i)).second) {
        all.AddFrom(c.points(), i);
      }
    }
  };
  add_from(blind);
  for (const auto& c : per_group) add_from(c);

  const double threshold = mu / static_cast<double>(m + 1);
  const std::vector<int> labels = ThresholdClusters(all, metric, threshold);
  std::vector<double> a(all.dim());
  std::vector<double> b(all.dim());

  // Property (i): inter-cluster distance >= µ/(m+1).
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      if (labels[i] != labels[j]) {
        EXPECT_GE(metric(all.GatherCoords(i, a), all.GatherCoords(j, b)),
                  threshold);
      }
    }
  }

  // Property (ii): each cluster holds at most one element per candidate.
  auto check_source = [&](const StreamingCandidate& c) {
    std::map<int, int> cluster_count;
    for (size_t i = 0; i < all.size(); ++i) {
      if (c.points().ContainsId(all.IdAt(i))) {
        ++cluster_count[labels[i]];
      }
    }
    for (const auto& [cluster, count] : cluster_count) {
      EXPECT_LE(count, 1) << "cluster " << cluster;
    }
  };
  check_source(blind);
  for (const auto& c : per_group) check_source(c);

  // Property (iii): intra-cluster diameter < µ·m/(m+1).
  const double diameter_bound = mu * m / static_cast<double>(m + 1);
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      if (labels[i] == labels[j]) {
        EXPECT_LT(metric(all.GatherCoords(i, a), all.GatherCoords(j, b)),
                  diameter_bound);
      }
    }
  }
}

}  // namespace
}  // namespace fdm
