#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace fdm {
namespace {

Dataset TestData(int m, uint64_t seed = 111, size_t n = 600) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = m;
  opt.seed = seed;
  return MakeBlobs(opt);
}

RunConfig ConfigFor(const Dataset& ds, AlgorithmKind algo, int k) {
  RunConfig config;
  config.algorithm = algo;
  config.constraint = EqualRepresentation(k, ds.num_groups()).value();
  config.epsilon = 0.1;
  config.bounds = BoundsForExperiments(ds);
  return config;
}

TEST(AlgorithmNameTest, AllNamed) {
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kGmm), "GMM");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kFairSwap), "FairSwap");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kFairFlow), "FairFlow");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kFairGmm), "FairGMM");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSfdm1), "SFDM1");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSfdm2), "SFDM2");
}

TEST(RunAlgorithmTest, EveryAlgorithmProducesKElements) {
  const Dataset ds = TestData(2);
  for (const AlgorithmKind algo :
       {AlgorithmKind::kGmm, AlgorithmKind::kFairSwap, AlgorithmKind::kFairFlow,
        AlgorithmKind::kFairGmm, AlgorithmKind::kSfdm1,
        AlgorithmKind::kSfdm2}) {
    const RunResult r = RunAlgorithm(ds, ConfigFor(ds, algo, 8));
    ASSERT_TRUE(r.ok) << AlgorithmName(algo) << ": " << r.error;
    EXPECT_EQ(r.selected_ids.size(), 8u) << AlgorithmName(algo);
    EXPECT_GT(r.diversity, 0.0) << AlgorithmName(algo);
    EXPECT_GE(r.total_time_sec, 0.0);
  }
}

TEST(RunAlgorithmTest, StreamingMetricsPopulated) {
  const Dataset ds = TestData(2);
  const RunResult r = RunAlgorithm(ds, ConfigFor(ds, AlgorithmKind::kSfdm1, 6));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.stream_time_sec, 0.0);
  EXPECT_GE(r.post_time_sec, 0.0);
  EXPECT_GT(r.avg_update_ms, 0.0);
  EXPECT_GT(r.stored_elements, 0u);
  EXPECT_LT(r.stored_elements, ds.size());
  EXPECT_NEAR(r.total_time_sec, r.stream_time_sec + r.post_time_sec, 1e-9);
}

TEST(RunAlgorithmTest, OfflineStoresWholeDataset) {
  const Dataset ds = TestData(2);
  const RunResult r =
      RunAlgorithm(ds, ConfigFor(ds, AlgorithmKind::kFairSwap, 6));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stored_elements, ds.size());
  EXPECT_DOUBLE_EQ(r.stream_time_sec, 0.0);
}

TEST(RunAlgorithmTest, PermutationSeedChangesStreamingOutcome) {
  const Dataset ds = TestData(2, 117, 1500);
  RunConfig config = ConfigFor(ds, AlgorithmKind::kSfdm2, 10);
  config.permutation_seed = 1;
  const RunResult a = RunAlgorithm(ds, config);
  config.permutation_seed = 2;
  const RunResult b = RunAlgorithm(ds, config);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // Different stream orders usually select different elements.
  EXPECT_NE(a.selected_ids, b.selected_ids);
}

TEST(RunAlgorithmTest, DeterministicForFixedSeed) {
  const Dataset ds = TestData(3);
  RunConfig config = ConfigFor(ds, AlgorithmKind::kSfdm2, 9);
  config.permutation_seed = 5;
  const RunResult a = RunAlgorithm(ds, config);
  const RunResult b = RunAlgorithm(ds, config);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.selected_ids, b.selected_ids);
  EXPECT_DOUBLE_EQ(a.diversity, b.diversity);
}

TEST(RunRepeatedTest, AveragesOverRuns) {
  const Dataset ds = TestData(2);
  const AggregateResult agg =
      RunRepeated(ds, ConfigFor(ds, AlgorithmKind::kSfdm1, 6), 3);
  EXPECT_EQ(agg.total_runs, 3);
  EXPECT_EQ(agg.ok_runs, 3);
  EXPECT_TRUE(agg.error.empty());
  EXPECT_GT(agg.diversity, 0.0);
  EXPECT_GT(agg.stored_elements, 0.0);
}

TEST(RunRepeatedTest, ReportsFailuresWithoutPoisoningMeans) {
  // FairSwap on a 3-group dataset fails every run; the aggregate must
  // carry the error and zero ok_runs.
  const Dataset ds = TestData(3);
  const AggregateResult agg =
      RunRepeated(ds, ConfigFor(ds, AlgorithmKind::kFairSwap, 6), 2);
  EXPECT_EQ(agg.ok_runs, 0);
  EXPECT_FALSE(agg.error.empty());
}

TEST(RunAlgorithmTest, SolveEveryTraceMatchesPlainRun) {
  // The interleaved-query trace mode must not change the final solution
  // (Solve is anytime and the SolveCache is exact) and must report its
  // mid-stream query activity.
  const Dataset ds = TestData(2);
  RunConfig config = ConfigFor(ds, AlgorithmKind::kSfdm2, 9);
  const RunResult plain = RunAlgorithm(ds, config);
  config.solve_every = 7;
  const RunResult traced = RunAlgorithm(ds, config);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(traced.ok);
  EXPECT_EQ(plain.selected_ids, traced.selected_ids);
  EXPECT_DOUBLE_EQ(plain.diversity, traced.diversity);
  EXPECT_EQ(traced.intermediate_solves, (ds.size() + 6) / 7);
  EXPECT_LE(traced.solve_cache_hits, traced.intermediate_solves);
  EXPECT_EQ(plain.intermediate_solves, 0u);
  // The pooled latency histogram holds one sample per trace solve (real
  // in every build configuration — it rides the shared histogram type,
  // not the registry).
  EXPECT_EQ(traced.trace_solve_hist.count, traced.intermediate_solves);
  EXPECT_GE(traced.trace_solve_hist.Percentile(0.99),
            traced.trace_solve_hist.Percentile(0.5));
  EXPECT_EQ(plain.trace_solve_hist.count, 0u);
}

TEST(BoundsForExperimentsTest, PositiveAndOrdered) {
  const Dataset ds = TestData(2);
  const DistanceBounds b = BoundsForExperiments(ds);
  EXPECT_GT(b.min, 0.0);
  EXPECT_GT(b.max, b.min);
}

}  // namespace
}  // namespace fdm
