#include "core/fairness.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(FairnessConstraintTest, ValidateAcceptsPositiveQuotas) {
  FairnessConstraint c;
  c.quotas = {3, 2, 5};
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.TotalK(), 10);
  EXPECT_EQ(c.num_groups(), 3);
}

TEST(FairnessConstraintTest, ValidateRejectsEmptyAndNonPositive) {
  FairnessConstraint empty;
  EXPECT_EQ(empty.Validate().code(), StatusCode::kInvalidArgument);
  FairnessConstraint zero;
  zero.quotas = {1, 0};
  EXPECT_FALSE(zero.Validate().ok());
  FairnessConstraint negative;
  negative.quotas = {-1, 2};
  EXPECT_FALSE(negative.Validate().ok());
}

TEST(FairnessConstraintTest, ValidateRejectsASumPastIntMax) {
  // TotalK() adds the quotas as int, so a sum past INT_MAX must never
  // validate.
  constexpr int kMax = std::numeric_limits<int>::max();
  FairnessConstraint c;
  c.quotas = {2000000000, 2000000000};
  EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  c.quotas = {kMax, 1};
  EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  c.quotas = {kMax - 1, 1};
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.TotalK(), kMax);
}

TEST(FairnessConstraintTest, ValidateAgainstGroupSizes) {
  FairnessConstraint c;
  c.quotas = {2, 3};
  const std::vector<size_t> enough{5, 3};
  EXPECT_TRUE(c.ValidateAgainst(enough).ok());
  const std::vector<size_t> short_group{5, 2};
  EXPECT_EQ(c.ValidateAgainst(short_group).code(), StatusCode::kInfeasible);
  const std::vector<size_t> wrong_arity{5, 3, 1};
  EXPECT_EQ(c.ValidateAgainst(wrong_arity).code(),
            StatusCode::kInvalidArgument);
}

TEST(EqualRepresentationTest, DivisibleCase) {
  const auto c = EqualRepresentation(20, 4);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->quotas, (std::vector<int>{5, 5, 5, 5}));
}

TEST(EqualRepresentationTest, RemainderGoesToLeadingGroups) {
  const auto c = EqualRepresentation(20, 3);
  ASSERT_TRUE(c.ok());
  // Paper: ⌈k/m⌉ for some groups, ⌊k/m⌋ for the others, summing to k.
  EXPECT_EQ(c->quotas, (std::vector<int>{7, 7, 6}));
  EXPECT_EQ(c->TotalK(), 20);
}

TEST(EqualRepresentationTest, EveryGroupGetsAtLeastOne) {
  const auto c = EqualRepresentation(15, 14);
  ASSERT_TRUE(c.ok());
  for (const int q : c->quotas) EXPECT_GE(q, 1);
  EXPECT_EQ(c->TotalK(), 15);
}

TEST(EqualRepresentationTest, RejectsKSmallerThanM) {
  EXPECT_FALSE(EqualRepresentation(3, 5).ok());
  EXPECT_FALSE(EqualRepresentation(0, 1).ok());
  EXPECT_FALSE(EqualRepresentation(5, 0).ok());
}

TEST(EqualRepresentationTest, SweepTotalsAlwaysMatch) {
  for (int m = 1; m <= 20; ++m) {
    for (int k = m; k <= 60; ++k) {
      const auto c = EqualRepresentation(k, m);
      ASSERT_TRUE(c.ok()) << "k=" << k << " m=" << m;
      EXPECT_EQ(c->TotalK(), k);
      EXPECT_EQ(c->num_groups(), m);
      // Quotas differ by at most one.
      const auto [lo, hi] =
          std::minmax_element(c->quotas.begin(), c->quotas.end());
      EXPECT_LE(*hi - *lo, 1);
    }
  }
}

TEST(ProportionalRepresentationTest, MatchesProportionsOnBalancedData) {
  const std::vector<size_t> sizes{500, 500};
  const auto c = ProportionalRepresentation(10, sizes);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->quotas, (std::vector<int>{5, 5}));
}

TEST(ProportionalRepresentationTest, SkewedProportions) {
  // 67% / 33% (the Adult sex skew) with k = 20 -> 13/7 or 14/6 by rounding;
  // largest remainder gives 13/7.
  const std::vector<size_t> sizes{67, 33};
  const auto c = ProportionalRepresentation(20, sizes);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->TotalK(), 20);
  EXPECT_EQ(c->quotas[0], 13);
  EXPECT_EQ(c->quotas[1], 7);
}

TEST(ProportionalRepresentationTest, TinyGroupStillRepresented) {
  // A 1% group would round to zero; PR must still give it one slot
  // (the paper restricts experiments to >= 1 element per group).
  const std::vector<size_t> sizes{990, 10};
  const auto c = ProportionalRepresentation(10, sizes);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->quotas[1], 1);
  EXPECT_EQ(c->TotalK(), 10);
}

TEST(ProportionalRepresentationTest, SweepPreservesTotalAndPositivity) {
  const std::vector<std::vector<size_t>> size_sets{
      {855, 96, 31, 10, 8},       // Adult race skew
      {100, 100, 100},            // balanced
      {5000, 1, 1, 1},            // extreme skew
      {52, 48},
  };
  for (const auto& sizes : size_sets) {
    for (int k = static_cast<int>(sizes.size()); k <= 30; ++k) {
      const auto c = ProportionalRepresentation(k, sizes);
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(c->TotalK(), k);
      for (const int q : c->quotas) EXPECT_GE(q, 1);
    }
  }
}

TEST(ProportionalRepresentationTest, LargerGroupNeverGetsFewerSlots) {
  const std::vector<size_t> sizes{800, 150, 50};
  const auto c = ProportionalRepresentation(20, sizes);
  ASSERT_TRUE(c.ok());
  EXPECT_GE(c->quotas[0], c->quotas[1]);
  EXPECT_GE(c->quotas[1], c->quotas[2]);
}

TEST(ProportionalRepresentationTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(ProportionalRepresentation(1, std::vector<size_t>{5, 5}).ok());
  EXPECT_FALSE(ProportionalRepresentation(5, std::vector<size_t>{}).ok());
  EXPECT_FALSE(
      ProportionalRepresentation(2, std::vector<size_t>{0, 0}).ok());
}

}  // namespace
}  // namespace fdm
