// The duplicate-guard core suite: the bitmap + table id set must answer
// membership exactly for every id shape (dense in order, dense shuffled,
// offset, random 63-bit), move table ids into the bitmap when it doubles
// without losing any, stay inside its memory bounds, and round-trip
// through snapshot bytes at every prefix of an insert sequence — the
// property the session footer chain leans on — including footers written
// by the fingerprint-filter releases.

#include "service/dedup_filter.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/rng.h"

namespace fdm {
namespace {

// Serialize → reframe → Deserialize, asserting success.
DedupFilter RoundTrip(const DedupFilter& filter) {
  SnapshotWriter writer;
  filter.Serialize(writer);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto restored = DedupFilter::Deserialize(*reader);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  return std::move(restored.value());
}

enum class Shape { kDenseInOrder, kDenseShuffled, kOffset, kRandom63 };

// `n` distinct ids of the given shape, with ~10% of the stream re-sending
// an id sent earlier (the guard's real traffic).
std::vector<int64_t> IdStream(Shape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> fresh(n);
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kDenseInOrder:
      case Shape::kDenseShuffled:
        fresh[i] = static_cast<int64_t>(i);
        break;
      case Shape::kOffset:
        fresh[i] = (int64_t{1} << 40) + static_cast<int64_t>(i);
        break;
      case Shape::kRandom63:
        fresh[i] = static_cast<int64_t>(rng.NextUint64() >> 1);
        break;
    }
  }
  if (shape == Shape::kDenseShuffled) rng.Shuffle(fresh);
  std::vector<int64_t> stream;
  stream.reserve(n + n / 10);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(fresh[i]);
    if (i > 0 && rng.NextBounded(10) == 0) {
      stream.push_back(fresh[rng.NextBounded(i)]);
    }
  }
  return stream;
}

// Ids that take every path at once: ids around and ahead of the dense
// frontier (they wait in the table until a doubling moves them), offset
// and random 63-bit ids (table for good), dense ids, and re-sends.
std::vector<int64_t> MixedStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBounded(6)) {
      case 0:
        stream.push_back(static_cast<int64_t>(rng.NextBounded(4 * i + 64)));
        break;
      case 1:
        stream.push_back((int64_t{1} << 40) + static_cast<int64_t>(i));
        break;
      case 2:
        stream.push_back(static_cast<int64_t>(rng.NextUint64() >> 1));
        break;
      case 3:
        if (!stream.empty()) {
          stream.push_back(stream[rng.NextBounded(stream.size())]);
          break;
        }
        [[fallthrough]];
      default:
        stream.push_back(static_cast<int64_t>(i));
        break;
    }
  }
  return stream;
}

TEST(DedupFilterTest, InsertIfAbsentIsExact) {
  DedupFilter filter;
  EXPECT_FALSE(filter.Contains(7));
  EXPECT_TRUE(filter.InsertIfAbsent(7));
  EXPECT_FALSE(filter.InsertIfAbsent(7));  // exact duplicate
  EXPECT_TRUE(filter.Contains(7));
  EXPECT_FALSE(filter.Contains(8));
  EXPECT_EQ(filter.Size(), 1u);
  EXPECT_TRUE(filter.InsertIfAbsent(0));  // id 0 is a legal id
  EXPECT_FALSE(filter.InsertIfAbsent(0));
  EXPECT_EQ(filter.Size(), 2u);
  const int64_t max_id = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(filter.InsertIfAbsent(max_id));  // table side
  EXPECT_FALSE(filter.InsertIfAbsent(max_id));
  EXPECT_TRUE(filter.Contains(max_id));
  EXPECT_FALSE(filter.Contains(max_id - 1));
  EXPECT_FALSE(filter.Contains(-1));
  EXPECT_EQ(filter.Size(), 3u);
}

// Growth under load: ids at stride 3 push far past the initial 64-id
// bitmap. Every id stays findable and no absent id is reported present.
TEST(DedupFilterTest, GrowthUnderLoadLosesNoIds) {
  DedupFilter filter;
  constexpr int64_t kN = 100000;
  for (int64_t id = 0; id < kN; ++id) {
    ASSERT_TRUE(filter.InsertIfAbsent(id * 3)) << "id " << id * 3;
  }
  EXPECT_EQ(filter.Size(), static_cast<size_t>(kN));
  EXPECT_GT(filter.Grows(), 0u);
  // A third of the ids below 300k: one bit each, at most doubled.
  EXPECT_LE(filter.MemoryBytes(), static_cast<size_t>(kN * 3 / 4 + 4096));
  for (int64_t id = 0; id < kN; ++id) {
    ASSERT_TRUE(filter.Contains(id * 3)) << "id " << id * 3;
    ASSERT_FALSE(filter.InsertIfAbsent(id * 3)) << "id " << id * 3;
  }
  for (int64_t id = 0; id < kN; ++id) {
    ASSERT_FALSE(filter.Contains(id * 3 + 1)) << "id " << id * 3 + 1;
  }
}

// Oracle fuzz over every id shape: each InsertIfAbsent and Contains answer
// must match std::unordered_set, including while shuffled dense ids sit
// in the table and move into the bitmap as it doubles.
TEST(DedupFilterTest, FuzzMatchesUnorderedSetOracle) {
  constexpr size_t kN = 100000;
  const Shape shapes[] = {Shape::kDenseInOrder, Shape::kDenseShuffled,
                          Shape::kOffset, Shape::kRandom63};
  for (const Shape shape : shapes) {
    SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)));
    const std::vector<int64_t> stream =
        IdStream(shape, kN, 0xfdde0u + static_cast<uint64_t>(shape));
    Rng rng(0xc0ffeeu);
    DedupFilter filter;
    std::unordered_set<int64_t> oracle;
    for (size_t step = 0; step < stream.size(); ++step) {
      const int64_t id = stream[step];
      ASSERT_EQ(filter.InsertIfAbsent(id), oracle.insert(id).second)
          << "step " << step << " id " << id;
      // Probe a neighbour, an earlier id, and a random id.
      const int64_t probes[] = {
          id + 1, stream[rng.NextBounded(step + 1)],
          static_cast<int64_t>(rng.NextBounded(2 * kN))};
      for (const int64_t probe : probes) {
        ASSERT_EQ(filter.Contains(probe), oracle.count(probe) != 0)
            << "step " << step << " probe " << probe;
      }
      // Neither part ever costs more than the table's 32 B per id.
      ASSERT_LE(filter.MemoryBytes(), 32 * filter.Size() + 256)
          << "step " << step;
    }
    EXPECT_EQ(filter.Size(), oracle.size());
    for (const int64_t id : oracle) ASSERT_TRUE(filter.Contains(id));
    if (shape == Shape::kDenseInOrder || shape == Shape::kDenseShuffled) {
      // Every dense id ends in the bitmap: at most 2 bits per id.
      EXPECT_LE(filter.MemoryBytes(), kN / 4 + 1024);
    }
  }
  // A skewed domain with heavy duplication and interleaved lookups.
  Rng rng(0xfdde0u);
  DedupFilter filter;
  std::unordered_set<int64_t> oracle;
  for (int step = 0; step < 200000; ++step) {
    const int64_t id = static_cast<int64_t>(rng.NextUint64() % 50000);
    if (rng.NextUint64() % 4 == 0) {
      ASSERT_EQ(filter.Contains(id), oracle.count(id) != 0)
          << "step " << step << " id " << id;
    } else {
      ASSERT_EQ(filter.InsertIfAbsent(id), oracle.insert(id).second)
          << "step " << step << " id " << id;
    }
  }
  EXPECT_EQ(filter.Size(), oracle.size());
  EXPECT_GT(filter.Grows(), 0u);
}

// Ids the bitmap cannot reach yet sit in the table; each doubling that
// covers them moves them over (re-sends stay duplicates across the move),
// and the emptied table shrinks back.
TEST(DedupFilterTest, DoublingMovesCoveredTableIds) {
  DedupFilter filter;
  std::vector<bool> oracle(1100, false);
  const auto insert = [&](int64_t id) {
    ASSERT_TRUE(filter.InsertIfAbsent(id)) << "id " << id;
    oracle[static_cast<size_t>(id)] = true;
    for (int64_t probe = 0; probe < 1100; ++probe) {
      ASSERT_EQ(filter.Contains(probe), oracle[static_cast<size_t>(probe)])
          << "after " << id << " probe " << probe;
    }
  };
  // The even ids 200..998 come first, while W = 1 covers only 0..63.
  for (int64_t id = 200; id < 1000; id += 2) {
    ASSERT_NO_FATAL_FAILURE(insert(id));
  }
  EXPECT_GE(filter.MemoryBytes(), 400u * 16);  // 16-32 B per table id
  // Then 0..199 and the odd ids 201..999: every doubling they trigger
  // moves the even ids it covers out of the table.
  for (int64_t id = 0; id < 200; ++id) ASSERT_NO_FATAL_FAILURE(insert(id));
  for (int64_t id = 201; id < 1000; id += 2) {
    ASSERT_NO_FATAL_FAILURE(insert(id));
  }
  const size_t bytes = filter.MemoryBytes();
  for (int64_t id = 0; id < 1000; ++id) {
    ASSERT_FALSE(filter.InsertIfAbsent(id)) << "id " << id;
  }
  EXPECT_EQ(filter.MemoryBytes(), bytes);
  EXPECT_EQ(filter.Size(), 1000u);
  // All 1000 ids in a 1024-id bitmap (128 B) beside an empty 16-slot table.
  EXPECT_EQ(filter.MemoryBytes(), 128u + 16 * sizeof(int64_t));
}

// Ids that each land just past the bitmap (64, 128, 256, …) while it holds
// almost nothing must not double it: per id it would cost more than the
// table does.
TEST(DedupFilterTest, SparseIdsDoNotInflateTheBitmap) {
  DedupFilter filter;
  for (int j = 0; j < 24; ++j) {
    ASSERT_TRUE(filter.InsertIfAbsent(int64_t{64} << j));
    ASSERT_LE(filter.MemoryBytes(), 32 * filter.Size() + 256) << "j " << j;
  }
  for (int j = 0; j < 24; ++j) {
    ASSERT_TRUE(filter.Contains(int64_t{64} << j));
    ASSERT_FALSE(filter.Contains((int64_t{64} << j) + 1));
  }
}

TEST(DedupFilterTest, DenseIdsCostOneBitEach) {
  DedupFilter filter;
  constexpr size_t kN = 1000000;
  for (size_t id = 0; id < kN; ++id) {
    ASSERT_TRUE(filter.InsertIfAbsent(static_cast<int64_t>(id)));
  }
  EXPECT_LE(filter.MemoryBytes(), kN / 8 + 64 * 1024);
}

// Ids the bitmap never covers cost what the table costs: at most 50% load,
// at most 32 B per id at any size.
TEST(DedupFilterTest, RandomIdsCostNoMoreThanTheTable) {
  Rng rng(0x7ab1eu);
  DedupFilter filter;
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(filter.InsertIfAbsent(
        static_cast<int64_t>(rng.NextUint64() >> 1)));
    if (filter.Size() >= 8) {
      ASSERT_LE(filter.MemoryBytes(), 32 * filter.Size()) << "size "
                                                          << filter.Size();
    }
  }
}

// Snapshot round-trip at every prefix of an insert sequence that crosses
// bitmap and table doublings: the restored set must preserve membership,
// size, and the grow count — the property the session snapshot footer
// depends on at whatever moment a spill or snapshot lands.
TEST(DedupFilterTest, SerializeRoundTripsAtEveryPrefix) {
  Rng rng(0x5eedu);
  std::vector<int64_t> ids;
  for (int i = 0; i < 400; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:  // ahead of the bitmap: table first, bitmap after a doubling
        ids.push_back(static_cast<int64_t>(rng.NextBounded(1000)));
        break;
      case 1:
        ids.push_back((int64_t{1} << 40) + static_cast<int64_t>(i));
        break;
      default:  // dense and in order
        ids.push_back(i);
        break;
    }
  }
  DedupFilter filter;
  std::unordered_set<int64_t> seen;
  uint64_t last_grows = 0;
  int doublings_crossed = 0;
  for (size_t prefix = 0; prefix <= ids.size(); ++prefix) {
    if (filter.Grows() != last_grows) doublings_crossed += 1;
    last_grows = filter.Grows();
    DedupFilter restored = RoundTrip(filter);
    ASSERT_EQ(restored.Size(), filter.Size()) << "prefix " << prefix;
    ASSERT_EQ(restored.Grows(), filter.Grows()) << "prefix " << prefix;
    ASSERT_EQ(restored.MemoryBytes(), filter.MemoryBytes())
        << "prefix " << prefix;
    for (const int64_t id : seen) {
      ASSERT_TRUE(restored.Contains(id)) << "prefix " << prefix;
    }
    for (int64_t probe = 0; probe < 1000; ++probe) {
      ASSERT_EQ(restored.Contains(probe), seen.count(probe) != 0)
          << "prefix " << prefix << " probe " << probe;
    }
    // The restored copy keeps working as a set, not just a record.
    if (!seen.empty()) {
      ASSERT_FALSE(restored.InsertIfAbsent(*seen.begin()));
    }
    ASSERT_TRUE(restored.InsertIfAbsent(1000002));
    if (prefix == ids.size()) break;
    ASSERT_EQ(filter.InsertIfAbsent(ids[prefix]),
              seen.insert(ids[prefix]).second);
  }
  EXPECT_GE(doublings_crossed, 4);
}

// A rejected re-send never changes the structure, so a set fed the whole
// stream and a set fed only its distinct ids (what the WAL records, and so
// what recovery and followers replay) match in bytes and grows throughout.
// The first case: 100 waits in the table while the bitmap is empty, 0
// then lands in the bitmap, and re-sending 100 must not double it.
TEST(DedupFilterTest, RejectedDuplicatesLeaveTheStructureAlone) {
  DedupFilter filter;
  ASSERT_TRUE(filter.InsertIfAbsent(100));
  ASSERT_TRUE(filter.InsertIfAbsent(0));
  const size_t bytes = filter.MemoryBytes();
  const uint64_t grows = filter.Grows();
  ASSERT_FALSE(filter.InsertIfAbsent(100));
  ASSERT_FALSE(filter.InsertIfAbsent(0));
  EXPECT_EQ(filter.MemoryBytes(), bytes);
  EXPECT_EQ(filter.Grows(), grows);

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DedupFilter whole;
    DedupFilter distinct;
    for (const int64_t id : MixedStream(20000, seed)) {
      if (!whole.InsertIfAbsent(id)) continue;
      ASSERT_TRUE(distinct.InsertIfAbsent(id));
      ASSERT_EQ(whole.MemoryBytes(), distinct.MemoryBytes()) << "id " << id;
      ASSERT_EQ(whole.Grows(), distinct.Grows()) << "id " << id;
    }
  }
}

// A follower restores the primary's footer at some point of the stream and
// then replays the same inserts: it must hold the primary's structure from
// the restore on, so both report the same filter bytes and grows.
TEST(DedupFilterTest, RestoreRebuildsTheWritersStructure) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<int64_t> stream = MixedStream(3000, seed);
    const size_t cut = Rng(seed).NextBounded(stream.size() + 1);
    DedupFilter primary;
    for (size_t i = 0; i < cut; ++i) primary.InsertIfAbsent(stream[i]);
    DedupFilter follower = RoundTrip(primary);
    ASSERT_EQ(follower.MemoryBytes(), primary.MemoryBytes()) << "cut " << cut;
    ASSERT_EQ(follower.Grows(), primary.Grows()) << "cut " << cut;
    for (size_t i = cut; i < stream.size(); ++i) {
      ASSERT_EQ(follower.InsertIfAbsent(stream[i]),
                primary.InsertIfAbsent(stream[i]))
          << "step " << i;
      ASSERT_EQ(follower.MemoryBytes(), primary.MemoryBytes())
          << "step " << i;
      ASSERT_EQ(follower.Grows(), primary.Grows()) << "step " << i;
    }
  }
}

// The footer keeps the layout the fingerprint filter wrote: a legal bucket
// count, the grow count, a zero where false positives were counted, and
// the ids as one i64 list.
TEST(DedupFilterTest, SerializeWritesTheFooterLayout) {
  DedupFilter filter;
  const std::vector<int64_t> ids = {5, 70, int64_t{1} << 40};
  for (const int64_t id : ids) ASSERT_TRUE(filter.InsertIfAbsent(id));
  SnapshotWriter writer;
  filter.Serialize(writer);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  const uint64_t buckets = reader->ReadU64();
  EXPECT_GE(buckets, 64u);
  EXPECT_EQ(buckets & (buckets - 1), 0u);
  EXPECT_EQ(reader->ReadU64(), filter.Grows());
  EXPECT_EQ(reader->ReadU64(), 0u);
  std::vector<int64_t> written = reader->ReadI64Vec();
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, ids);
  EXPECT_TRUE(reader->ok());
  EXPECT_EQ(reader->Remaining(), 0u);
}

// SplitMix64, the hash the fingerprint-filter releases placed ids with.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A footer hand-built in the fingerprint-filter layout: bucket count 4096,
// 9 grows, 3 false positives, and the ids in the slot order of its exact
// table (linear probing at under 50% load). It restores with exact
// membership and the grow count, and the dense ids land in the bitmap.
TEST(DedupFilterTest, RestoresFingerprintFilterFooter) {
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < 20000; ++id) {
    if (id % 5 != 3) ids.push_back(id);
  }
  for (int64_t i = 0; i < 500; ++i) ids.push_back((int64_t{1} << 40) + 11 * i);
  ids.push_back(std::numeric_limits<int64_t>::max());
  size_t capacity = 512;
  while (capacity < ids.size() * 2) capacity *= 2;
  std::vector<int64_t> slots(capacity, -1);
  for (const int64_t id : ids) {
    size_t slot = static_cast<size_t>(Mix64(static_cast<uint64_t>(id))) &
                  (capacity - 1);
    while (slots[slot] != -1) slot = (slot + 1) & (capacity - 1);
    slots[slot] = id;
  }
  std::vector<int64_t> table_order;
  for (const int64_t id : slots) {
    if (id != -1) table_order.push_back(id);
  }
  SnapshotWriter writer;
  writer.WriteU64(4096);
  writer.WriteU64(9);
  writer.WriteU64(3);
  writer.WriteI64Span(table_order);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  auto restored = DedupFilter::Deserialize(*reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(reader->Remaining(), 0u);
  EXPECT_EQ(restored->Size(), ids.size());
  EXPECT_EQ(restored->Grows(), 9u);
  for (int64_t id = 0; id < 20100; ++id) {
    ASSERT_EQ(restored->Contains(id), id < 20000 && id % 5 != 3) << id;
  }
  for (int64_t i = 0; i < 500 * 11; ++i) {
    ASSERT_EQ(restored->Contains((int64_t{1} << 40) + i), i % 11 == 0) << i;
  }
  EXPECT_TRUE(restored->Contains(std::numeric_limits<int64_t>::max()));
  // A table alone needs 16-32 B per id (256-512 KiB) for this set.
  EXPECT_LE(restored->MemoryBytes(), 64u * 1024);
}

TEST(DedupFilterTest, DeserializeRejectsMalformedBytes) {
  DedupFilter filter;
  for (int64_t id = 0; id < 100; ++id) filter.InsertIfAbsent(id);
  SnapshotWriter writer;
  filter.Serialize(writer);
  const std::string good = writer.Serialize();

  // Flip a payload byte: the frame checksum catches it at FromBytes.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x5a;
  EXPECT_FALSE(SnapshotReader::FromBytes(flipped).ok());

  // Structurally wrong payloads (valid frame, nonsense fields).
  const auto rejects = [](uint64_t buckets, std::vector<int64_t> ids) {
    SnapshotWriter bogus;
    bogus.WriteU64(buckets);
    bogus.WriteU64(0);
    bogus.WriteU64(0);
    bogus.WriteI64Span(ids);
    auto reader = SnapshotReader::FromBytes(bogus.Serialize());
    EXPECT_TRUE(reader.ok());
    return !DedupFilter::Deserialize(*reader).ok();
  };
  EXPECT_TRUE(rejects(3, {1, 2, 3}));  // bucket count: < 64, not 2^k
  EXPECT_TRUE(rejects(96, {1, 2, 3}));  // not a power of two
  EXPECT_TRUE(rejects(64, {5, 5}));     // a set never lists an id twice
  EXPECT_TRUE(rejects(64, {1, -2}));    // nor a negative id
  EXPECT_FALSE(rejects(64, {1, 2, 3}));

  // An id count past the end of the payload.
  SnapshotWriter truncated;
  truncated.WriteU64(64);
  truncated.WriteU64(0);
  truncated.WriteU64(0);
  truncated.WriteU64(1000);
  truncated.WriteI64(1);
  auto reader = SnapshotReader::FromBytes(truncated.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(DedupFilter::Deserialize(*reader).ok());
}

}  // namespace
}  // namespace fdm
