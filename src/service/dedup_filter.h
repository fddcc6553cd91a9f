#ifndef FDM_SERVICE_DEDUP_FILTER_H_
#define FDM_SERVICE_DEDUP_FILTER_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace fdm {

class SnapshotWriter;
class SnapshotReader;

/// Exact-duplicate guard keyed by point id: one exact id set kept in two
/// disjoint parts.
///
///  * A bitmap over ids [0, 64·W), one bit per id. Point ids are usually
///    numbered 0, 1, 2, … per stream, so this part normally holds every id
///    at 1/8 B each.
///  * An open-addressing int64 table (linear probing, load at most 50%, so
///    16–32 B per id) for every other non-negative id: offset, sparse or
///    random ids.
///
/// `W` (the bitmap's word count) doubles when an id lands in
/// [64·W, 128·W) while the bitmap already holds at least W ids, so the
/// bitmap never costs more than 16 B per id it holds — no more than the
/// table would. A doubling moves the table ids it now covers into the
/// bitmap, so every id lives in exactly one part and every probe is one
/// bit test or one table probe. `Grows()` counts doublings of either part.
///
/// Ids must be non-negative; the session layer routes negative ids (no
/// identity) around the guard entirely.
///
/// The structure follows from the sequence of distinct ids inserted alone
/// (a rejected duplicate changes nothing; no timing, no randomness), and a
/// restore rebuilds the writer's bitmap width and table size. So a primary,
/// its crash recovery and its followers report the same `MemoryBytes()`
/// and `Grows()`.
///
/// Not thread-safe; the owning session serializes access like the sink.
class DedupFilter {
 public:
  DedupFilter();

  /// Inserts `id` if absent. Returns true iff the id was new (the caller
  /// should admit the point), false iff it was already present (exact
  /// duplicate — reject). O(1) amortized.
  bool InsertIfAbsent(int64_t id);

  /// Exact membership.
  bool Contains(int64_t id) const;

  /// Distinct ids inserted.
  size_t Size() const { return size_; }

  /// Resident bytes of the bitmap and table backing arrays.
  size_t MemoryBytes() const;

  /// Bitmap and table doublings so far (restored across snapshots).
  uint64_t Grows() const { return grows_; }

  /// Drops every id and returns to the empty structure; the cumulative
  /// grow count is kept.
  void Clear();

  /// Appends the set to `writer` in the footer layout every release has
  /// used: a bucket-count field (a legal constant), the grow count, a
  /// retired counter slot (0), and the ids as one i64 list.
  void Serialize(SnapshotWriter& writer) const;

  /// Rebuilds a set from `Serialize` output, including footers written by
  /// the fingerprint-filter releases. Fails loudly on malformed bytes —
  /// callers treat that as "no filter persisted".
  static Result<DedupFilter> Deserialize(SnapshotReader& reader);

 private:
  /// Ids below this live in the bitmap; the table holds the rest.
  uint64_t BitmapIds() const { return bits_.size() * 64; }
  size_t TableSize() const { return size_ - bitmap_size_; }

  /// Doubles W and moves the table ids it now covers into the bitmap.
  void GrowBitmap();
  bool TableContains(int64_t id) const;
  void TableInsert(int64_t id);  // id must be absent; capacity must fit
  void RebuildTable(size_t slots);

  std::vector<uint64_t> bits_;  // bit (id & 63) of word id / 64
  size_t bitmap_size_ = 0;      // ids set in bits_

  std::vector<int64_t> table_;  // linear probing, -1 = empty
  size_t table_mask_ = 0;

  size_t size_ = 0;
  uint64_t grows_ = 0;
};

}  // namespace fdm

#endif  // FDM_SERVICE_DEDUP_FILTER_H_
