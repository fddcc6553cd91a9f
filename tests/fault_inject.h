#ifndef FDM_TESTS_FAULT_INJECT_H_
#define FDM_TESTS_FAULT_INJECT_H_

// Deterministic fault injection for the replication layer: a
// `ReplicationSource` wrapper that reshapes what a follower sees, so tests
// can freeze the primary's visible position at any record ("kill the
// follower here"), tear the tail of the last visible segment mid-record,
// drop listed files between manifest and fetch (pruning races), serve a
// stale manifest captured earlier, and knock a ranged fetch's offset off
// the follower's next record. Everything is pure function of the
// wrapped source plus explicit knobs — no timing, no randomness — so every
// injected failure replays exactly.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "replica/replication_source.h"
#include "service/wal.h"
#include "util/binary_io.h"

namespace fdm {

class FaultInjectingSource : public ReplicationSource {
 public:
  explicit FaultInjectingSource(std::shared_ptr<ReplicationSource> inner)
      : inner_(std::move(inner)) {}

  /// Freezes the follower-visible stream at `seq`: manifests hide
  /// snapshots and whole segments past it, fetched segment bytes are cut
  /// at the last record <= seq. -1 = unlimited (default).
  void SetMaxVisibleSeq(int64_t seq) { max_visible_seq_ = seq; }

  /// After a `SetMaxVisibleSeq` cut, additionally expose up to `bytes`
  /// bytes of the record after the cut — a torn tail exactly as a crash
  /// (or a ship racing an append) would leave it.
  void SetTornTailBytes(size_t bytes) { torn_tail_bytes_ = bytes; }

  /// The next `GetManifest` calls return these (FIFO) instead of asking
  /// the wrapped source — a follower working off a stale manifest while
  /// the primary moves on.
  void QueueManifest(ReplicaManifest manifest) {
    queued_manifests_.push_back(std::move(manifest));
  }

  /// Re-ships every WAL segment: each manifest lists every segment entry
  /// `factor` times in a row ([A,A,B,B,...] for factor 2) — the
  /// duplicate-replay storm a flapping transport or a retrying shipper
  /// produces. A correct follower skips the repeats (each record's seq is
  /// below the expected position on the second pass) and stays
  /// bit-identical with `divergence_rebuilds == 0`. 1 = off (default).
  void SetSegmentReshipFactor(int factor) {
    reship_factor_ = factor < 1 ? 1 : factor;
  }

  /// Force-fails every fetch of the snapshot at `seq` / the segment whose
  /// first record is `first_seq` (a pruned or unreachable file).
  void FailSnapshot(int64_t seq) { failed_snapshots_.insert(seq); }
  void FailSegment(int64_t first_seq) { failed_segments_.insert(first_seq); }
  void ClearFailures() {
    failed_snapshots_.clear();
    failed_segments_.clear();
  }

  /// Shifts the next ranged (non-zero offset) WAL fetch by `delta` bytes
  /// before it reaches the wrapped source — a follower whose offset no
  /// longer points at its next record (past the end of the file, onto an
  /// already-applied record, or mid-record). One-shot.
  void SkewNextRangedFetch(int64_t delta) { ranged_skew_ = delta; }

  /// Drops the last `bytes` bytes of the next ranged WAL fetch's reply — a
  /// ship cut short, possibly on a record boundary. One-shot.
  void ShortenNextRangedFetch(size_t bytes) { ranged_drop_tail_ = bytes; }

  int64_t manifest_fetches() const { return manifest_fetches_; }
  int64_t forced_failures() const { return forced_failures_; }
  /// WAL fetches that asked for a range (offset != 0), and the offset the
  /// most recent WAL fetch asked for.
  int64_t ranged_fetches() const { return ranged_fetches_; }
  uint64_t last_fetch_offset() const { return last_fetch_offset_; }

  void InvalidateCaches() override { inner_->InvalidateCaches(); }

  Result<ReplicaManifest> GetManifest() override {
    ++manifest_fetches_;
    ReplicaManifest manifest;
    if (!queued_manifests_.empty()) {
      manifest = std::move(queued_manifests_.front());
      queued_manifests_.pop_front();
    } else {
      auto inner = inner_->GetManifest();
      if (!inner.ok()) return inner.status();
      manifest = std::move(inner.value());
    }
    if (max_visible_seq_ < 0) return Reship(std::move(manifest));

    const int64_t cap = max_visible_seq_;
    if (manifest.primary_seq > cap) manifest.primary_seq = cap;
    if (manifest.advert_seq > cap) {
      // The advert pairs (seq, version); a capped view never saw it.
      manifest.advert_seq = 0;
      manifest.primary_version = 0;
    }
    std::erase_if(manifest.snapshots, [cap](const ReplicaSnapshotInfo& s) {
      return s.seq > cap;
    });
    std::erase_if(manifest.segments, [cap](const WalSegmentInfo& s) {
      return s.first_seq > cap;
    });
    if (!manifest.segments.empty()) {
      // The last visible segment will be byte-truncated by the fetch
      // below; its listed size/checksum no longer describe it.
      manifest.segments.back().checksum = 0;
      manifest.segments.back().bytes = 0;
    }
    return Reship(std::move(manifest));
  }

  Result<std::string> FetchSnapshot(int64_t seq) override {
    if (failed_snapshots_.count(seq) != 0 ||
        (max_visible_seq_ >= 0 && seq > max_visible_seq_)) {
      ++forced_failures_;
      return Status::IoError("fault injection: snapshot " +
                             std::to_string(seq) + " unavailable");
    }
    return inner_->FetchSnapshot(seq);
  }

  Result<std::string> FetchWalSegment(int64_t first_seq,
                                      uint64_t offset) override {
    if (failed_segments_.count(first_seq) != 0 ||
        (max_visible_seq_ >= 0 && first_seq > max_visible_seq_)) {
      ++forced_failures_;
      return Status::IoError("fault injection: segment " +
                             std::to_string(first_seq) + " unavailable");
    }
    last_fetch_offset_ = offset;
    size_t drop_tail = 0;
    if (offset != 0) {
      ++ranged_fetches_;
      offset += static_cast<uint64_t>(std::exchange(ranged_skew_, 0));
      drop_tail = std::exchange(ranged_drop_tail_, 0);
    }
    auto bytes = inner_->FetchWalSegment(first_seq, offset);
    if (bytes.ok() && drop_tail > 0) {
      bytes->resize(bytes->size() - std::min(drop_tail, bytes->size()));
    }
    if (!bytes.ok() || max_visible_seq_ < 0) return bytes;

    // Cut at the last record <= cap, optionally re-exposing a torn prefix
    // of the next record. Cursor offsets are segment offsets; the cut is
    // taken relative to where the fetched range starts.
    WalSegmentCursor cursor(*bytes, offset);
    WalRecordView record;
    size_t cut = cursor.valid_bytes();
    size_t next_record_end = cut;
    bool capped = false;
    while (cursor.Next(record)) {
      if (record.seq > max_visible_seq_) {
        capped = true;
        next_record_end = cursor.valid_bytes();
        break;
      }
      cut = cursor.valid_bytes();
    }
    if (!capped) return bytes;
    std::string visible = bytes->substr(0, cut - offset);
    if (torn_tail_bytes_ > 0) {
      const size_t torn =
          std::min(torn_tail_bytes_, next_record_end - cut - 1);
      visible.append(bytes->substr(cut - offset, torn));
    }
    return visible;
  }

 private:
  ReplicaManifest Reship(ReplicaManifest manifest) const {
    if (reship_factor_ <= 1) return manifest;
    std::vector<WalSegmentInfo> repeated;
    repeated.reserve(manifest.segments.size() *
                     static_cast<size_t>(reship_factor_));
    for (const WalSegmentInfo& seg : manifest.segments) {
      for (int i = 0; i < reship_factor_; ++i) repeated.push_back(seg);
    }
    manifest.segments = std::move(repeated);
    return manifest;
  }

  std::shared_ptr<ReplicationSource> inner_;
  int64_t max_visible_seq_ = -1;
  size_t torn_tail_bytes_ = 0;
  int reship_factor_ = 1;
  std::deque<ReplicaManifest> queued_manifests_;
  std::set<int64_t> failed_snapshots_;
  std::set<int64_t> failed_segments_;
  int64_t manifest_fetches_ = 0;
  int64_t forced_failures_ = 0;
  int64_t ranged_skew_ = 0;
  size_t ranged_drop_tail_ = 0;
  int64_t ranged_fetches_ = 0;
  uint64_t last_fetch_offset_ = 0;
};

}  // namespace fdm

#endif  // FDM_TESTS_FAULT_INJECT_H_
