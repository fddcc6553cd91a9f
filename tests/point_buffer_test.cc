#include "geo/point_buffer.h"

#include <bit>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geo/point_buffer_io.h"
#include "util/binary_io.h"
#include "util/rng.h"

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
  EXPECT_DOUBLE_EQ(buf.CoordAt(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(buf.CoordAt(0, 1), -2.5);
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
  EXPECT_DOUBLE_EQ(buf.CoordAt(0, 0), 2.0);
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

TEST(PointBufferTest, GatherAndAddFromRoundTrip) {
  PointBuffer buf(2, 2);
  buf.Add(Make(5, 3, {1.0, 2.0}));
  std::vector<double> scratch(3, -1.0);  // longer than dim: only [0, 2) set
  const std::span<const double> coords = buf.GatherCoords(0, scratch);
  ASSERT_EQ(coords.size(), 2u);
  EXPECT_EQ(coords.data(), scratch.data());
  EXPECT_DOUBLE_EQ(coords[0], 1.0);
  EXPECT_DOUBLE_EQ(coords[1], 2.0);
  EXPECT_DOUBLE_EQ(scratch[2], -1.0);

  PointBuffer other(2, 2);
  other.AddFrom(buf, 0);
  EXPECT_EQ(other.IdAt(0), 5);
  EXPECT_EQ(other.GroupAt(0), 3);
  EXPECT_DOUBLE_EQ(other.CoordAt(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(other.CoordAt(0, 1), 2.0);
}

// AddFrom copies the cached norm the angular kernel reads, bit for bit,
// across block boundaries and growth (and from the buffer itself): the
// copy scans exactly like a buffer built by `Add` from the same points.
TEST(PointBufferTest, AddFromCopiesAngularNormBitForBit) {
  Rng rng(7);
  constexpr size_t kDim = 5;
  PointBuffer src(kDim, 0);
  PointBuffer added(kDim, 0);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 19; ++i) {
    std::vector<double> c(kDim);
    for (double& x : c) x = i == 4 ? 0.0 : rng.NextDouble(-3.0, 3.0);
    points.push_back(c);
    src.Add(Make(i, i % 2, c));
  }
  PointBuffer copy(kDim, 4);  // capacity 4: growth past it moves storage
  for (size_t n = 0; n < points.size(); ++n) {
    const size_t i = (n * 7) % points.size();  // a permutation of 0..18
    copy.AddFrom(src, i);
    added.Add(Make(static_cast<int64_t>(i), static_cast<int32_t>(i % 2),
                   points[i]));
  }
  copy.AddFrom(copy, 3);
  const size_t third = static_cast<size_t>(added.IdAt(3));
  added.Add(Make(added.IdAt(3), added.GroupAt(3), points[third]));
  ASSERT_EQ(copy.size(), added.size());
  for (size_t j = 0; j < copy.size(); ++j) {
    const size_t i = static_cast<size_t>(copy.IdAt(j));
    EXPECT_EQ(std::bit_cast<uint64_t>(src.SquaredNormAt(i)),
              std::bit_cast<uint64_t>(copy.SquaredNormAt(j)))
        << "slot " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(added.SquaredNormAt(j)),
              std::bit_cast<uint64_t>(copy.SquaredNormAt(j)))
        << "slot " << j;
  }
  const Metric angular(MetricKind::kAngular);
  for (int q = 0; q < 20; ++q) {
    std::vector<double> x(kDim);
    for (double& v : x) v = rng.NextDouble(-3.0, 3.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(added.MinRawDistanceTo(x, angular)),
              std::bit_cast<uint64_t>(copy.MinRawDistanceTo(x, angular)));
  }
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

// Heap bytes of a buffer whose arrays hold `rows` ids and groups and
// `blocks` 8-point kernel blocks (coordinates and norms), at dim 6.
size_t Dim6Bytes(size_t rows, size_t blocks) {
  constexpr size_t kDim = 6;
  return rows * (sizeof(int64_t) + sizeof(int32_t)) +
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
  EXPECT_EQ(Dim6Bytes(8, 1), 544u);    // a 3-point candidate: ~0.5 KB
  EXPECT_EQ(Dim6Bytes(20, 3), 1584u);  // a full one, as reserved before
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

// Points of `a` and `b` match bit for bit (ids, groups, coordinates and
// cached norms), and so do scans of both under every metric, which also
// read the padding lanes.
void ExpectSameBits(const PointBuffer& a, const PointBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.IdAt(i), b.IdAt(i)) << "point " << i;
    EXPECT_EQ(a.GroupAt(i), b.GroupAt(i)) << "point " << i;
    EXPECT_EQ(bits(a.SquaredNormAt(i)), bits(b.SquaredNormAt(i)))
        << "point " << i;
    for (size_t d = 0; d < a.dim(); ++d) {
      EXPECT_EQ(bits(a.CoordAt(i, d)), bits(b.CoordAt(i, d)))
          << "point " << i << " coordinate " << d;
    }
  }
  const std::vector<double> query(a.dim(), 0.125);
  for (const MetricKind kind : {MetricKind::kEuclidean, MetricKind::kManhattan,
                                MetricKind::kAngular}) {
    const Metric metric(kind);
    EXPECT_EQ(bits(a.MinRawDistanceTo(query, metric)),
              bits(b.MinRawDistanceTo(query, metric)));
  }
}

std::vector<double> RandomCoords(Rng& rng, size_t dim) {
  std::vector<double> c(dim);
  for (double& x : c) x = rng.NextDouble(-3.0, 3.0);
  return c;
}

// The slab is managed by hand, so its copies are checked directly: a copy
// (constructed or assigned) holds exactly the used blocks and rows of its
// source and the same bits — a copied full k = 20 buffer at dim 6 reads
// 1,584 B, whatever its source's slab held.
TEST(PointBufferTest, CopyHoldsExactlyItsUsedSectionsAndTheSameBits) {
  Rng rng(11);
  PointBuffer source(6, 0);  // uncapped: 20 points sit in 32 rows, 4 blocks
  for (int i = 0; i < 20; ++i) {
    source.Add(Make(i, i % 3, RandomCoords(rng, 6)));
  }
  ASSERT_EQ(source.MemoryBytes(), Dim6Bytes(32, 4));

  const PointBuffer copy(source);
  EXPECT_EQ(copy.MemoryBytes(), 1584u);
  EXPECT_EQ(copy.MemoryBytes(), Dim6Bytes(20, 3));
  ExpectSameBits(copy, source);

  PointBuffer assigned(6, 4);
  for (int i = 0; i < 3; ++i) {
    assigned.Add(Make(100 + i, 0, RandomCoords(rng, 6)));
  }
  assigned = source;
  EXPECT_EQ(assigned.MemoryBytes(), Dim6Bytes(20, 3));
  ExpectSameBits(assigned, source);

  // A copy of an empty buffer holds no heap, whatever its source's slab.
  source.Clear();
  EXPECT_EQ(PointBuffer(source).MemoryBytes(), 0u);
}

// A moved-from buffer, constructed from or assigned away, holds nothing
// and still accepts points; the target holds the source's slab and points.
TEST(PointBufferTest, MovedFromBufferReadsZeroBytesAndStillAcceptsPoints) {
  Rng rng(12);
  PointBuffer source(6, 20);
  for (int i = 0; i < 10; ++i) {
    source.Add(Make(i, 0, RandomCoords(rng, 6)));
  }
  const PointBuffer snapshot(source);
  const size_t bytes = source.MemoryBytes();

  PointBuffer moved(std::move(source));
  EXPECT_EQ(moved.MemoryBytes(), bytes);
  ExpectSameBits(moved, snapshot);
  EXPECT_EQ(source.MemoryBytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(source.empty());
  const std::vector<double> c = RandomCoords(rng, 6);
  source.Add(Make(42, 1, c));
  ASSERT_EQ(source.size(), 1u);
  EXPECT_EQ(source.MemoryBytes(), Dim6Bytes(8, 1));
  EXPECT_EQ(source.IdAt(0), 42);
  EXPECT_EQ(source.CoordAt(0, 5), c[5]);

  PointBuffer target(6, 20);
  target.Add(Make(7, 0, RandomCoords(rng, 6)));
  target = std::move(moved);
  EXPECT_EQ(target.MemoryBytes(), bytes);
  ExpectSameBits(target, snapshot);
  EXPECT_EQ(moved.MemoryBytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.empty());
  moved.Add(Make(43, 0, c));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.IdAt(0), 43);
}

// `AddFrom(*this, i)` whose point opens a new block moves the slab first
// and still copies point `i`'s bits, and the new block's padding
// replicates it.
TEST(PointBufferTest, SelfAddFromThatOpensABlockKeepsThePointsBits) {
  Rng rng(13);
  PointBuffer buffer(6, 8);  // one block, full after 8 points
  PointBuffer expected(6, 0);
  std::vector<std::vector<double>> coords;
  for (int i = 0; i < 8; ++i) {
    coords.push_back(RandomCoords(rng, 6));
    buffer.Add(Make(i, i % 2, coords.back()));
    expected.Add(Make(i, i % 2, coords.back()));
  }
  ASSERT_EQ(buffer.MemoryBytes(), Dim6Bytes(8, 1));
  buffer.AddFrom(buffer, 3);
  expected.Add(Make(3, 1, coords[3]));
  EXPECT_EQ(buffer.MemoryBytes(), Dim6Bytes(16, 2));
  ExpectSameBits(buffer, expected);
}

TEST(PointBufferTest, GrowsBeyondReservedCapacity) {
  PointBuffer buf(1, 1);  // capacity is a reservation hint, not a cap
  for (int i = 0; i < 10; ++i) {
    buf.Add(Make(i, 0, {static_cast<double>(i)}));
  }
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.IdAt(9), 9);
}


// The snapshot layout of a buffer holding `points` (id, group, coordinates
// in storage order), built byte by byte: dim u64 | id count u64, ids i64 |
// group count u64, groups i32 | coordinate count u64, coordinates f64,
// point-major.
struct LayoutPoint {
  int64_t id;
  int32_t group;
  std::vector<double> coords;
};

std::string PointMajorBytes(size_t dim, const std::vector<LayoutPoint>& points) {
  std::string bytes;
  auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(static_cast<uint64_t>(dim));
  put(static_cast<uint64_t>(points.size()));
  for (const LayoutPoint& p : points) put(p.id);
  put(static_cast<uint64_t>(points.size()));
  for (const LayoutPoint& p : points) put(p.group);
  put(static_cast<uint64_t>(points.size() * dim));
  for (const LayoutPoint& p : points) {
    for (const double c : p.coords) put(c);
  }
  return bytes;
}

// `buffer` framed as a snapshot holding only it.
std::string Framed(const PointBuffer& buffer) {
  SnapshotWriter writer;
  SerializePointBuffer(writer, buffer);
  return writer.Serialize();
}

// The payload of `Framed(buffer)`: what `SerializePointBuffer` wrote.
std::string SerializedPayload(const PointBuffer& buffer) {
  const std::string framed = Framed(buffer);
  return framed.substr(SnapshotWriter::kHeaderBytes,
                       framed.size() - SnapshotWriter::kHeaderBytes -
                           sizeof(uint64_t));
}

// The writer gathers coordinates out of the kernel blocks; the bytes must
// stay the point-major layout every older snapshot holds, after each kind
// of mutation, and read back into the same buffer.
TEST(PointBufferTest, SnapshotLayoutIsPointMajorInStorageOrder) {
  for (const size_t dim : {1u, 6u, 9u}) {
    PointBuffer buf(dim, 12);
    std::vector<LayoutPoint> want;
    int64_t next = 0;
    auto point = [&](int64_t id) {
      LayoutPoint p{id, static_cast<int32_t>(id % 3), {}};
      for (size_t d = 0; d < dim; ++d) {
        p.coords.push_back(static_cast<double>(id) * 100.0 +
                           static_cast<double>(d) + 0.25);
      }
      return p;
    };
    auto add = [&](bool defer) {
      const LayoutPoint p = point(next++);
      const StreamPoint sp{p.id, p.group, p.coords};
      defer ? buf.AddDeferPadding(sp) : buf.Add(sp);
      want.push_back(p);
    };
    auto check = [&](const char* after) {
      const std::string payload = SerializedPayload(buf);
      EXPECT_EQ(PointMajorBytes(dim, want), payload)
          << "dim " << dim << " after " << after;
      auto reader = SnapshotReader::FromBytes(Framed(buf));
      ASSERT_TRUE(reader.ok());
      PointBuffer back(dim, 0);
      DeserializePointBuffer(reader.value(), back);
      ASSERT_TRUE(reader.value().ok()) << reader.value().status().ToString();
      EXPECT_EQ(payload, SerializedPayload(back)) << "dim " << dim;
    };

    for (int i = 0; i < 11; ++i) add(/*defer=*/false);
    check("Add");
    for (int i = 0; i < 7; ++i) add(/*defer=*/true);
    buf.SealPadding();
    check("a deferred-padding run");
    for (const size_t index : {2u, 16u, 0u, 9u}) {
      buf.RemoveSwap(index);
      want[index] = want.back();
      want.pop_back();
    }
    check("RemoveSwap");
    buf.Clear();
    want.clear();
    check("Clear");
    for (int i = 0; i < 5; ++i) add(/*defer=*/false);
    check("a refill");
  }
}

}  // namespace
}  // namespace fdm
