#include "geo/point_buffer.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace fdm {
namespace {

StreamPoint Make(int64_t id, int32_t group, const std::vector<double>& c) {
  return StreamPoint{id, group, std::span<const double>(c)};
}

TEST(PointBufferTest, StartsEmpty) {
  PointBuffer buf(3, 4);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dim(), 3u);
}

TEST(PointBufferTest, AddCopiesCoordinates) {
  PointBuffer buf(2, 4);
  std::vector<double> c{1.5, -2.5};
  buf.Add(Make(7, 1, c));
  c[0] = 999.0;  // mutate the source; the buffer must hold a copy
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_DOUBLE_EQ(buf.CoordsAt(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(buf.CoordsAt(0)[1], -2.5);
  EXPECT_EQ(buf.IdAt(0), 7);
  EXPECT_EQ(buf.GroupAt(0), 1);
}

TEST(PointBufferTest, MinDistanceToEmptyIsInfinity) {
  PointBuffer buf(2, 4);
  const std::vector<double> q{0.0, 0.0};
  const Metric m(MetricKind::kEuclidean);
  EXPECT_EQ(buf.MinDistanceTo(q, m), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(buf.AllAtLeast(q, m, 1e100));
}

TEST(PointBufferTest, MinDistanceFindsNearest) {
  PointBuffer buf(2, 4);
  buf.Add(Make(0, 0, {0.0, 0.0}));
  buf.Add(Make(1, 0, {10.0, 0.0}));
  buf.Add(Make(2, 0, {0.0, 3.0}));
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{0.0, 1.0};
  EXPECT_DOUBLE_EQ(buf.MinDistanceTo(q, m), 1.0);  // nearest is (0,0)
}

TEST(PointBufferTest, AllAtLeastThresholdSemantics) {
  PointBuffer buf(1, 4);
  buf.Add(Make(0, 0, {0.0}));
  buf.Add(Make(1, 0, {5.0}));
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{2.0};
  EXPECT_TRUE(buf.AllAtLeast(q, m, 2.0));    // min distance exactly 2
  EXPECT_FALSE(buf.AllAtLeast(q, m, 2.01));  // below threshold
}

TEST(PointBufferTest, RemoveSwapKeepsOthers) {
  PointBuffer buf(1, 4);
  buf.Add(Make(0, 0, {0.0}));
  buf.Add(Make(1, 1, {1.0}));
  buf.Add(Make(2, 0, {2.0}));
  buf.RemoveSwap(0);  // last element moves into position 0
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.IdAt(0), 2);
  EXPECT_EQ(buf.GroupAt(0), 0);
  EXPECT_DOUBLE_EQ(buf.CoordsAt(0)[0], 2.0);
  EXPECT_EQ(buf.IdAt(1), 1);
}

TEST(PointBufferTest, RemoveSwapLastElement) {
  PointBuffer buf(1, 4);
  buf.Add(Make(0, 0, {0.0}));
  buf.Add(Make(1, 0, {1.0}));
  buf.RemoveSwap(1);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.IdAt(0), 0);
}

TEST(PointBufferTest, ContainsId) {
  PointBuffer buf(1, 4);
  buf.Add(Make(42, 0, {0.0}));
  EXPECT_TRUE(buf.ContainsId(42));
  EXPECT_FALSE(buf.ContainsId(43));
}

TEST(PointBufferTest, ViewAtRoundTrips) {
  PointBuffer buf(2, 2);
  buf.Add(Make(5, 3, {1.0, 2.0}));
  const StreamPoint view = buf.ViewAt(0);
  EXPECT_EQ(view.id, 5);
  EXPECT_EQ(view.group, 3);
  ASSERT_EQ(view.coords.size(), 2u);
  EXPECT_DOUBLE_EQ(view.coords[1], 2.0);

  PointBuffer other(2, 2);
  other.Add(view);
  EXPECT_EQ(other.IdAt(0), 5);
  EXPECT_DOUBLE_EQ(other.CoordsAt(0)[0], 1.0);
}

TEST(PointBufferTest, ClearEmptiesBuffer) {
  PointBuffer buf(1, 2);
  buf.Add(Make(0, 0, {0.5}));
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{0.5};
  EXPECT_EQ(buf.MinDistanceTo(q, m), std::numeric_limits<double>::infinity());
}

// Heap bytes of a buffer whose arrays hold `rows` point-major rows and
// `blocks` 8-point kernel blocks, at dim 6.
size_t Dim6Bytes(size_t rows, size_t blocks) {
  constexpr size_t kDim = 6;
  return rows * (kDim * sizeof(double) + sizeof(int64_t) + sizeof(int32_t)) +
         blocks * 8 * (kDim + 1) * sizeof(double);
}

// The growth schedule at dim 6, capacity 20 (one k=20 candidate): no heap
// before the first point, then one block, two, and finally exactly the 20
// rows in 3 blocks an up-front reservation held. Removals and Clear keep
// the capacity.
TEST(PointBufferTest, GrowthFollowsBlocksUpToCapacity) {
  PointBuffer buf(6, 20);
  EXPECT_EQ(buf.MemoryBytes(), 0u);
  const std::vector<double> c(6, 0.25);
  for (int i = 1; i <= 20; ++i) {
    buf.Add(Make(i, 0, c));
    const size_t want = i <= 8    ? Dim6Bytes(8, 1)
                        : i <= 16 ? Dim6Bytes(16, 2)
                                  : Dim6Bytes(20, 3);
    EXPECT_EQ(buf.MemoryBytes(), want) << "after add " << i;
  }
  EXPECT_EQ(Dim6Bytes(8, 1), 928u);    // a 3-point candidate: ~0.9 KB
  EXPECT_EQ(Dim6Bytes(20, 3), 2544u);  // a full one, as reserved before
  buf.RemoveSwap(3);
  buf.RemoveSwap(0);
  EXPECT_EQ(buf.MemoryBytes(), Dim6Bytes(20, 3));
  buf.Clear();
  EXPECT_EQ(buf.MemoryBytes(), Dim6Bytes(20, 3));
  for (int i = 1; i <= 20; ++i) buf.Add(Make(i, 0, c));
  EXPECT_EQ(buf.MemoryBytes(), Dim6Bytes(20, 3));

  // Without a capacity the block count keeps doubling; `Reserve` sizes a
  // buffer for a known fill up front.
  PointBuffer uncapped(6, 0);
  for (int i = 1; i <= 40; ++i) uncapped.Add(Make(i, 0, c));
  EXPECT_EQ(uncapped.MemoryBytes(), Dim6Bytes(64, 8));
  PointBuffer reserved(6, 0);
  reserved.Reserve(20);
  EXPECT_EQ(reserved.MemoryBytes(), Dim6Bytes(20, 3));
}

TEST(PointBufferTest, GrowsBeyondReservedCapacity) {
  PointBuffer buf(1, 1);  // capacity is a reservation hint, not a cap
  for (int i = 0; i < 10; ++i) {
    buf.Add(Make(i, 0, {static_cast<double>(i)}));
  }
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.IdAt(9), 9);
}

}  // namespace
}  // namespace fdm
