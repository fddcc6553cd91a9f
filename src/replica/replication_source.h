#ifndef FDM_REPLICA_REPLICATION_SOURCE_H_
#define FDM_REPLICA_REPLICATION_SOURCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "service/wal.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fdm {

/// One snapshot a follower can bootstrap from: its stream position, and
/// the whole-file size + FNV-1a 64 checksum a fetcher verifies before
/// trusting a shipped copy (the framed snapshot carries its own internal
/// checksum too; the outer one catches a truncated ship without parsing).
struct ReplicaSnapshotInfo {
  int64_t seq = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;  // 0 = not computed
};

/// What a primary exposes to followers at one instant: the sink spec, the
/// advertised durable stream position + state version, and the snapshot /
/// WAL-segment ranges currently fetchable. A manifest is a *hint*, not a
/// lease — the primary keeps ingesting and pruning, so any listed file can
/// be gone by fetch time; followers handle that by refetching the manifest
/// (and, when the tail below their position was pruned, by re-syncing from
/// a newer snapshot).
struct ReplicaManifest {
  std::string spec;
  /// Highest durable (fetchable) record sequence number.
  int64_t primary_seq = 0;
  /// Sink state version advertised at `advert_seq` (0 = no advert yet).
  /// Determinism contract: a follower that has applied exactly
  /// `advert_seq` records has exactly this state version.
  uint64_t primary_version = 0;
  int64_t advert_seq = 0;
  std::vector<ReplicaSnapshotInfo> snapshots;  // ascending seq
  std::vector<WalSegmentInfo> segments;        // ascending first_seq;
                                               // checksum 0 = active/growing
};

/// Follower-side transport interface: how a replica reads a primary's
/// replication state, in four calls. Two transports implement it: a
/// shared filesystem directory (`DirReplicationSource`) and a primary's
/// TCP front end (`SocketReplicationSource`, replica/socket_source.h). All
/// methods may be called repeatedly and must tolerate the primary mutating
/// between calls — fetch failures are ordinary control flow for a
/// follower, never fatal on their own.
class ReplicationSource {
 public:
  virtual ~ReplicationSource() = default;

  virtual Result<ReplicaManifest> GetManifest() = 0;

  /// Drops any transport-side caches. Followers call this when evidence
  /// says cached views are lying — a checksum/fetch mismatch against a
  /// fresh manifest, or a divergence rebuild (the primary's log was
  /// rewritten in place, which can reuse file names *and* sizes, the two
  /// things caches key on). A cacheless transport ignores it.
  virtual void InvalidateCaches() {}

  /// Framed snapshot bytes for the snapshot at `seq`.
  virtual Result<std::string> FetchSnapshot(int64_t seq) = 0;

  /// Raw bytes of the WAL segment whose first record is `first_seq`, from
  /// segment byte `offset` to its current end. Offset 0 is the whole
  /// segment, magic included; a follower that has applied a prefix passes
  /// the offset just past its last applied record and receives only the
  /// records after it. An offset past the end of the file is an error. The
  /// active segment may gain records between manifest and fetch, and its
  /// tail may be torn mid-record — callers stop cleanly at the intact
  /// prefix (`WalSegmentCursor`, started at the same offset).
  virtual Result<std::string> FetchWalSegment(int64_t first_seq,
                                              uint64_t offset) = 0;
};

/// Filesystem-directory transport: reads a primary `DurableSession`
/// directory in place (same host or a shared/replicated mount). Sealed
/// WAL segments are immutable, so their whole-file checksums are cached by
/// (first_seq, size) and computed once; the snapshots are re-examined per
/// manifest, and the active segment is scanned only past the point the
/// previous manifest reached, one `kIoWindowBytes` window at a time.
/// A fetch opens exactly the requested range and reads it with positioned
/// reads straight into the returned buffer; nothing fetched is kept.
class DirReplicationSource final : public ReplicationSource {
 public:
  /// `session_dir` is the primary session directory (the one holding
  /// SPEC/wal/snap), not the session-manager root.
  explicit DirReplicationSource(std::string session_dir);

  Result<ReplicaManifest> GetManifest() override;
  void InvalidateCaches() override;
  Result<std::string> FetchSnapshot(int64_t seq) override;
  Result<std::string> FetchWalSegment(int64_t first_seq,
                                      uint64_t offset) override;

  /// The one fetch path, behind `FetchSnapshot` and the primary's
  /// RFETCHSNAP reply: opens the snapshot at `seq` as a whole-file range,
  /// reading nothing. `FetchSnapshot` reads it into the returned string;
  /// the TCP front end sends it from the file.
  Result<FileRange> OpenSnapshot(int64_t seq) const;
  /// The same for `FetchWalSegment` and RFETCHWAL: the segment from byte
  /// `offset` to its end.
  Result<FileRange> OpenWalSegment(int64_t first_seq, uint64_t offset) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  /// first_seq -> (bytes, checksum) for sealed segments already hashed.
  std::map<int64_t, std::pair<uint64_t, uint64_t>> sealed_checksums_;
  /// seq -> (bytes, checksum) for snapshots already hashed (immutable once
  /// renamed into place, so a matching size means a valid cache hit).
  std::map<int64_t, std::pair<uint64_t, uint64_t>> snapshot_checksums_;
  /// Where the primary-position scan of the newest segment stands: which
  /// segment, the file size it last read up to, the offset just past the
  /// last intact record, and that record's seq. Segments are append-only,
  /// so the next manifest reads only the bytes past `scanned_valid_bytes_`
  /// (none when the size is unchanged); a rotation or a shorter file
  /// restarts the scan at offset 0.
  int64_t scanned_first_seq_ = 0;
  uint64_t scanned_bytes_ = 0;
  uint64_t scanned_valid_bytes_ = 0;
  int64_t scanned_last_seq_ = 0;
};

}  // namespace fdm

#endif  // FDM_REPLICA_REPLICATION_SOURCE_H_
