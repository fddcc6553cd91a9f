#include "core/solution.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/diversity.h"
#include "data/synthetic.h"

namespace fdm {
namespace {

Dataset TestData() {
  BlobsOptions opt;
  opt.n = 50;
  opt.num_groups = 2;
  opt.seed = 17;
  return MakeBlobs(opt);
}

TEST(SolutionTest, FromIndicesCopiesEverything) {
  const Dataset ds = TestData();
  const std::vector<size_t> rows{3, 17, 42};
  const Solution s = Solution::FromIndices(ds, rows);
  ASSERT_EQ(s.points.size(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(s.points.IdAt(i), static_cast<int64_t>(rows[i]));
    EXPECT_EQ(s.points.GroupAt(i), ds.GroupOf(rows[i]));
    for (size_t d = 0; d < ds.dim(); ++d) {
      EXPECT_DOUBLE_EQ(s.points.CoordAt(i, d), ds.Point(rows[i])[d]);
    }
  }
}

TEST(SolutionTest, FromIndicesComputesDiversity) {
  const Dataset ds = TestData();
  const std::vector<size_t> rows{0, 10, 20, 30};
  const Solution s = Solution::FromIndices(ds, rows);
  EXPECT_DOUBLE_EQ(s.diversity, MinPairwiseDistance(ds, rows));
  EXPECT_DOUBLE_EQ(s.mu, 0.0);  // offline: no winning guess
}

TEST(SolutionTest, IdsPreserveSelectionOrder) {
  const Dataset ds = TestData();
  const std::vector<size_t> rows{9, 2, 31};
  const Solution s = Solution::FromIndices(ds, rows);
  EXPECT_EQ(s.Ids(), (std::vector<int64_t>{9, 2, 31}));
}

TEST(SolutionTest, EmptySolution) {
  const Dataset ds = TestData();
  const Solution s = Solution::FromIndices(ds, {});
  EXPECT_EQ(s.points.size(), 0u);
  EXPECT_TRUE(s.Ids().empty());
  EXPECT_EQ(s.diversity, std::numeric_limits<double>::infinity());
}

TEST(SolutionTest, SingletonHasInfiniteDiversity) {
  const Dataset ds = TestData();
  const Solution s = Solution::FromIndices(ds, std::vector<size_t>{5});
  EXPECT_EQ(s.diversity, std::numeric_limits<double>::infinity());
}

TEST(SolutionTest, SolutionOutlivesDataset) {
  // The solution owns copies: reading it after the dataset is gone is
  // safe. (The dataset is destroyed at scope exit; the solution's
  // coordinates must remain intact.)
  Solution s(2);
  double expected0 = 0.0;
  {
    const Dataset ds = TestData();
    s = Solution::FromIndices(ds, std::vector<size_t>{1, 2});
    expected0 = ds.Point(1)[0];
  }
  ASSERT_EQ(s.points.size(), 2u);
  EXPECT_DOUBLE_EQ(s.points.CoordAt(0, 0), expected0);
}

}  // namespace
}  // namespace fdm
