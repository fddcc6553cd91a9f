#include "data/normalize.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdm {
namespace {

TEST(ColumnStatsTest, KnownMatrix) {
  // Two columns: {0,2,4} and {1,1,1}.
  std::vector<double> m{0, 1, 2, 1, 4, 1};
  const ColumnStats stats = ComputeColumnStats(m, 3, 2);
  EXPECT_DOUBLE_EQ(stats.mean[0], 2.0);
  EXPECT_DOUBLE_EQ(stats.mean[1], 1.0);
  EXPECT_NEAR(stats.stddev[0], std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.stddev[1], 1.0);  // constant column -> 1.0 sentinel
}

TEST(ZScoreTest, ProducesZeroMeanUnitVariance) {
  Rng rng(3);
  constexpr size_t kN = 500;
  constexpr size_t kDim = 4;
  std::vector<double> m(kN * kDim);
  for (auto& v : m) v = 10.0 + 3.0 * rng.NextGaussian();
  ZScoreNormalize(m, kN, kDim);
  const ColumnStats after = ComputeColumnStats(m, kN, kDim);
  for (size_t d = 0; d < kDim; ++d) {
    EXPECT_NEAR(after.mean[d], 0.0, 1e-9);
    EXPECT_NEAR(after.stddev[d], 1.0, 1e-9);
  }
}

TEST(ZScoreTest, ConstantColumnCentersOnly) {
  std::vector<double> m{5, 5, 5};  // one column, constant
  ZScoreNormalize(m, 3, 1);
  for (const double v : m) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ZScoreTest, PreservesColumnOrdering) {
  // z-scoring is monotone per column.
  std::vector<double> m{1, 10, 3, 20, 2, 30};
  ZScoreNormalize(m, 3, 2);
  EXPECT_LT(m[0], m[4]);  // 1 < 2 in column 0
  EXPECT_LT(m[4], m[2]);  // 2 < 3
  EXPECT_LT(m[1], m[3]);  // 10 < 20 in column 1
}

TEST(NormalizeTest, EmptyMatrixIsNoop) {
  std::vector<double> m;
  ZScoreNormalize(m, 0, 3);
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace fdm
