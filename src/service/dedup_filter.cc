#include "service/dedup_filter.h"

#include <bit>
#include <string>
#include <utility>

#include "util/binary_io.h"

namespace fdm {

namespace {

constexpr int64_t kEmptyId = -1;
constexpr size_t kMinTableSlots = 16;

/// The footer's bucket-count field sized the retired fingerprint filter.
/// It is written as that filter's smallest legal value, so every reader
/// accepts the footer, and is only validated on read.
constexpr uint64_t kFooterBuckets = 64;

/// SplitMix64 finalizer — one multiply-xor round is plenty for point ids,
/// and it is the same mixer the util Rng seeds with.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Smallest power-of-two table that holds `count` ids at no more than 50%
/// load — the size inserting them one by one reaches, so the table's size
/// always follows from its id count alone.
size_t TableSlotsFor(size_t count) {
  size_t slots = kMinTableSlots;
  while (slots < count * 2) slots *= 2;
  return slots;
}

}  // namespace

DedupFilter::DedupFilter() : bits_(1, 0) { RebuildTable(kMinTableSlots); }

bool DedupFilter::Contains(int64_t id) const {
  if (id < 0) return false;
  const uint64_t u = static_cast<uint64_t>(id);
  if (u < BitmapIds()) return ((bits_[u / 64] >> (u % 64)) & 1) != 0;
  return TableContains(id);
}

bool DedupFilter::InsertIfAbsent(int64_t id) {
  if (id < 0) return true;  // identity-less points bypass dedup
  const uint64_t u = static_cast<uint64_t>(id);
  if (u >= BitmapIds()) {
    // A re-sent id is rejected before anything can grow, so the structure
    // follows from the distinct ids alone — the ones the WAL records.
    if (TableContains(id)) return false;
    if (u < 2 * BitmapIds() && bitmap_size_ >= bits_.size()) GrowBitmap();
  }
  if (u < BitmapIds()) {
    uint64_t& word = bits_[u / 64];
    const uint64_t bit = uint64_t{1} << (u % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    bitmap_size_ += 1;
  } else {
    if ((TableSize() + 1) * 2 > table_.size()) {
      RebuildTable(table_.size() * 2);
      grows_ += 1;
    }
    TableInsert(id);
  }
  size_ += 1;
  return true;
}

void DedupFilter::GrowBitmap() {
  bits_.resize(bits_.size() * 2, 0);
  grows_ += 1;
  size_t moved = 0;
  for (int64_t& id : table_) {
    if (id == kEmptyId || static_cast<uint64_t>(id) >= BitmapIds()) continue;
    const uint64_t u = static_cast<uint64_t>(id);
    bits_[u / 64] |= uint64_t{1} << (u % 64);
    id = kEmptyId;  // the rebuild below restores the probe chains
    moved += 1;
  }
  if (moved == 0) return;
  bitmap_size_ += moved;
  RebuildTable(TableSlotsFor(TableSize()));
}

bool DedupFilter::TableContains(int64_t id) const {
  size_t slot =
      static_cast<size_t>(Mix64(static_cast<uint64_t>(id))) & table_mask_;
  while (table_[slot] != kEmptyId) {
    if (table_[slot] == id) return true;
    slot = (slot + 1) & table_mask_;
  }
  return false;
}

void DedupFilter::TableInsert(int64_t id) {
  size_t slot =
      static_cast<size_t>(Mix64(static_cast<uint64_t>(id))) & table_mask_;
  while (table_[slot] != kEmptyId) slot = (slot + 1) & table_mask_;
  table_[slot] = id;
}

void DedupFilter::RebuildTable(size_t slots) {
  const std::vector<int64_t> old =
      std::exchange(table_, std::vector<int64_t>(slots, kEmptyId));
  table_mask_ = slots - 1;
  for (const int64_t id : old) {
    if (id != kEmptyId) TableInsert(id);
  }
}

size_t DedupFilter::MemoryBytes() const {
  return bits_.size() * sizeof(uint64_t) + table_.size() * sizeof(int64_t);
}

void DedupFilter::Serialize(SnapshotWriter& writer) const {
  writer.WriteU64(kFooterBuckets);
  writer.WriteU64(grows_);
  writer.WriteU64(0);  // retired false-positive counter
  // WriteI64Span's layout, written id by id so the set is never copied
  // into a scratch vector. Table ids go first: none of them can double the
  // bitmap while it is empty. The bitmap ids then replay in ascending
  // order, which doubles it at each width this set doubled it to and no
  // further, so Deserialize rebuilds this exact bitmap width and table size.
  writer.WriteU64(size_);
  for (const int64_t id : table_) {
    if (id != kEmptyId) writer.WriteI64(id);
  }
  for (size_t w = 0; w < bits_.size(); ++w) {
    for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
      writer.WriteI64(static_cast<int64_t>(w * 64 + std::countr_zero(word)));
    }
  }
}

Result<DedupFilter> DedupFilter::Deserialize(SnapshotReader& reader) {
  const uint64_t buckets = reader.ReadU64();
  const uint64_t grows = reader.ReadU64();
  reader.ReadU64();  // retired false-positive counter
  const uint64_t count = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (buckets < kFooterBuckets || (buckets & (buckets - 1)) != 0) {
    return Status::IoError("dedup filter snapshot: bad bucket count " +
                           std::to_string(buckets));
  }
  if (count > reader.Remaining() / sizeof(int64_t)) {
    return Status::IoError("dedup filter snapshot: id list past end");
  }
  // Replaying the list rebuilds the bitmap/table split: Serialize's order
  // gives back the writer's structure, any other order (the fingerprint
  // filter's footers list ids in hash order) the same membership.
  DedupFilter filter;
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t id = reader.ReadI64();
    if (id < 0 || !filter.InsertIfAbsent(id)) {
      return Status::IoError("dedup filter snapshot: invalid id list");
    }
  }
  filter.grows_ = grows;
  return filter;
}

}  // namespace fdm
