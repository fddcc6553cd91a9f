#ifndef FDM_SERVICE_WAL_H_
#define FDM_SERVICE_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/stream_sink.h"
#include "geo/point_buffer.h"
#include "service/dedup_filter.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fdm {

/// One decoded WAL record. `coords` points into cursor-owned scratch and
/// stays valid until the next `Next()` call.
struct WalRecordView {
  int64_t seq = 0;
  int64_t id = -1;
  int32_t group = 0;
  std::span<const double> coords;
};

/// Forward reader over the intact records of one WAL segment. This is the
/// one record parser in the system: `WriteAheadLog::Open` uses it to
/// recover the last sequence number, `Replay` to feed a sink, and the
/// replication layer (`src/replica/`) to find the primary's durable
/// position and to apply shipped segment bytes on a follower without
/// owning a `WriteAheadLog`.
///
/// It reads through a `FileWindow`: a segment file one `kIoWindowBytes`
/// window at a time (a record larger than the window grows it to fit that
/// record), or in-memory bytes as one window that never refills. Both run
/// the same parse.
///
/// `Next` stops at the first torn record (length/checksum framing does not
/// hold — `torn_tail()` reports whether undecodable bytes remain) and
/// latches a non-OK `status()` on real corruption: a bad segment magic, or
/// a record whose checksum verifies but whose payload is malformed (that is
/// never a crash artifact). A failed file read latches too.
///
/// The same parser reads a ranged fetch: `start_offset` is the segment
/// offset the bytes begin at. 0 means the whole segment (which must open
/// with the segment magic); a non-zero offset must sit on a record boundary
/// past the magic, and the bytes start with a record. `valid_bytes()` is a
/// segment offset either way, so it can be handed back as the next fetch's
/// start.
class WalSegmentCursor {
 public:
  /// In-memory segment bytes (borrowed; they must outlive the cursor).
  explicit WalSegmentCursor(std::string_view bytes, size_t start_offset = 0);
  /// The segment file from `start_offset` to its size at open.
  explicit WalSegmentCursor(ReadOnlyFile file, uint64_t start_offset = 0);

  /// Advances to the next intact record. Returns false at the end of the
  /// intact prefix (check `status()` to distinguish "clean end / torn
  /// tail" from corruption).
  bool Next(WalRecordView& record);

  /// Non-OK after a bad magic, a checksum-valid but malformed payload, or
  /// a failed read.
  const Status& status() const { return status_; }

  /// True iff bytes remain past the last intact record (a crash tail).
  bool torn_tail() const { return valid_bytes_ < window_.end(); }

  /// Segment offset just past the last intact record (segment magic
  /// included), i.e. the truncation point that removes a torn tail.
  uint64_t valid_bytes() const { return valid_bytes_; }

 private:
  /// Checks the segment magic (offset 0) or the range start.
  void Start(uint64_t start_offset);
  /// `window_.Fill`, latching a failed read into `status_`.
  bool Fill(size_t n);

  FileWindow window_;
  uint64_t valid_bytes_ = 0;  // segment offset
  Status status_;
  std::vector<double> coords_;  // per-record scratch behind `record.coords`
};

/// `wal-<first_seq>.log`, zero-padded so lexicographic and numeric order
/// agree — the one definition of the segment file name, shared by the log
/// itself and the replication transport.
std::string WalSegmentFileName(int64_t first_seq);

/// Accumulates decoded WAL records and flushes them into a sink through
/// `ObserveBatch` — the one batched-apply path shared by crash-recovery
/// replay (`WriteAheadLog::Replay`) and follower tail application
/// (`ReplicaSession`), so both apply streams bit-identically and a fix to
/// either reaches the other. Callers decide when to flush (`ShouldFlush`
/// signals `kBatchRecords`); sequence bookkeeping stays with the caller,
/// whose gap-handling policies differ.
class WalBatchApplier {
 public:
  /// Records per `ObserveBatch` call. One constant for both callers, so
  /// recovery and follower catch-up chunk identically, and rung-parallel
  /// sinks apply through the batched ingestion engine.
  static constexpr size_t kBatchRecords = 512;

  /// `rule` is the session's admission rule (`SinkSpec::Rule()`). When
  /// `filter` is non-null, every applied record's id is fed through
  /// `DedupFilter::InsertIfAbsent` — this is how crash recovery and
  /// follower tails reconstruct the duplicate guard exactly: the WAL is
  /// authoritative (records are applied regardless), the filter just
  /// relearns membership alongside.
  WalBatchApplier(StreamSink& sink, PointRule rule,
                  DedupFilter* filter = nullptr)
      : sink_(sink), rule_(rule), filter_(filter) {}

  /// Buffers one record (coordinates copied). A record the session could
  /// not have admitted — a dimension or group outside `rule` — is
  /// corruption: it is not buffered, and the IoError names its seq.
  Status Add(const WalRecordView& record) {
    if (Status s = rule_.Check(record.coords.size(), record.group); !s.ok()) {
      return Status::IoError("WAL record seq " + std::to_string(record.seq) +
                             " does not fit the session: " + s.message());
    }
    if (filter_ != nullptr) filter_->InsertIfAbsent(record.id);
    if (coords_.capacity() == 0) coords_.reserve(kBatchRecords * rule_.dim);
    coords_.insert(coords_.end(), record.coords.begin(),
                   record.coords.end());
    ids_.push_back(record.id);
    groups_.push_back(record.group);
    return Status::Ok();
  }

  bool ShouldFlush() const { return ids_.size() >= kBatchRecords; }
  size_t pending() const { return ids_.size(); }

  /// Applies the buffered records through one `ObserveBatch` call; returns
  /// how many this call applied.
  size_t Flush() {
    if (ids_.empty()) return 0;
    std::vector<StreamPoint> points;
    points.reserve(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      points.push_back(StreamPoint{
          ids_[i], groups_[i],
          std::span<const double>(coords_.data() + i * rule_.dim,
                                  rule_.dim)});
    }
    mutations_ += sink_.ObserveBatch(points);
    const size_t applied = ids_.size();
    coords_.clear();
    ids_.clear();
    groups_.clear();
    return applied;
  }

  /// Total sink mutations across every `Flush` so far (the sum of
  /// `ObserveBatch` returns) — lets replay report how many applied records
  /// actually changed sink state, which the session's cumulative "kept"
  /// counter needs to survive crash recovery exactly.
  size_t mutations() const { return mutations_; }

 private:
  StreamSink& sink_;
  PointRule rule_;
  DedupFilter* filter_;
  size_t mutations_ = 0;
  std::vector<double> coords_;
  std::vector<int64_t> ids_;
  std::vector<int32_t> groups_;
};

/// One WAL segment file as seen by segment enumeration: its first sequence
/// number (from the file name), its size, and — when the caller computes it
/// (sealed segments only; the active segment keeps growing) — a whole-file
/// FNV-1a 64 checksum so a shipped copy can be verified byte-for-byte.
struct WalSegmentInfo {
  int64_t first_seq = 0;
  std::string path;
  uint64_t bytes = 0;
  uint64_t checksum = 0;  // 0 = not computed / not verifiable
};

/// Durability/performance knobs of the write-ahead log.
struct WalOptions {
  /// Rotate to a fresh segment file once the active one exceeds this size.
  /// A WAL fetch replies with at most one segment, which the primary sends
  /// from the file without buffering it: this bounds one fetch reply, which
  /// the follower still receives and holds whole.
  size_t segment_bytes = 1u << 20;
  /// fsync after this many appended records (1 = fsync every record; large
  /// values batch the fsyncs, trading a bounded tail of re-playable — but
  /// possibly lost on power failure — records for throughput). `Sync()`
  /// forces one regardless.
  size_t sync_every = 256;
};

/// Append-only, segmented, checksummed log of observed `StreamPoint`s — the
/// durability half the snapshot does not cover: crash recovery is "load the
/// latest snapshot, then replay the WAL tail after it".
///
/// On-disk layout: `<dir>/wal-<first_seq>.log` segment files. Each segment
/// starts with an 8-byte magic; records are framed as
///
///   payload length u32 | payload | FNV-1a 64 of payload
///
/// with payload = seq u64 | id i64 | group i32 | dim u32 | coords double[dim].
/// Sequence numbers are 1-based and dense: record `seq` is the `seq`-th
/// element ever observed by the session, so "replay after a snapshot taken
/// at `observed = N`" is exactly "replay records with seq > N".
///
/// Torn tails are expected (a crash can land mid-record): `Open` truncates
/// a torn tail off the newest segment before appending, and `Replay` stops
/// cleanly at a torn record in the newest segment. Corruption anywhere
/// else is reported as an error — that is data loss, not a crash artifact.
///
/// Not thread-safe; the session layer serializes access per session.
class WriteAheadLog {
 public:
  /// Opens (creating if needed) the log in `dir`. Scans existing segments
  /// to recover `last_seq` and truncates a torn tail off the newest
  /// segment.
  static Result<WriteAheadLog> Open(std::string dir, WalOptions options = {});

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// Appends a batch of observations (one buffered write, one
  /// fsync-policy check), assigning them `last_seq() + 1` onward. The
  /// records are durable once the next fsync (batched per `sync_every`,
  /// or explicit `Sync`) completes. A one-point batch frames exactly the
  /// bytes of that point inside a larger batch, so per-element and batched
  /// ingest write the same log.
  Status AppendBatch(std::span<const StreamPoint> batch);

  /// Flushes buffered records and fsyncs the active segment. A staging
  /// buffer a large batch grew past 4 KiB is released here, once its bytes
  /// are in the file.
  Status Sync();

  /// Replays every record with `seq > after_seq`, in sequence order,
  /// through `applier` (which holds the sink, the admission rule and the
  /// duplicate guard to rebuild; its `mutations()` afterwards counts the
  /// sink state changes). Returns the number of records replayed. The
  /// newest segment may end in a torn record (crash tail) — replay stops
  /// cleanly there. A record outside the applier's rule fails the replay
  /// with the applier's IoError.
  Result<int64_t> Replay(int64_t after_seq, WalBatchApplier& applier) const;

  /// Deletes whole segments whose records all have `seq < before_seq`
  /// (call after a snapshot at `before_seq - 1` has been written). The
  /// active segment is never deleted.
  Status TruncateBefore(int64_t before_seq);

  /// Enumerates the segment files of the log at `dir` without opening it
  /// for appends — the read-only view the replication source exports.
  /// Segments are sorted by first sequence number; zero-length files (a
  /// crash between segment creation and the first flush) are skipped with
  /// a warning rather than reported, matching `Replay`'s tolerance.
  /// Checksums are left 0 (callers that ship bytes compute them for sealed
  /// segments; see `WalSegmentInfo`).
  static Result<std::vector<WalSegmentInfo>> ListSegments(
      const std::string& dir);

  /// Highest sequence number ever appended (0 when empty).
  int64_t last_seq() const { return last_seq_; }

  /// Records appended since the last successful fsync.
  size_t unsynced_records() const { return unsynced_records_; }

  /// Current segment files, sorted by first sequence number.
  std::vector<std::string> SegmentPaths() const;

  const std::string& dir() const { return dir_; }

 private:
  WriteAheadLog(std::string dir, WalOptions options)
      : dir_(std::move(dir)), options_(options) {}

  /// Opens a new active segment whose first record will be `first_seq`.
  Status OpenSegment(int64_t first_seq);
  Status FlushBuffer();
  Status AppendLocked(const StreamPoint& point);
  void CloseFd();

  std::string dir_;
  WalOptions options_;
  std::vector<int64_t> segment_first_seqs_;  // sorted; last = active segment
  int fd_ = -1;
  size_t active_segment_bytes_ = 0;
  std::string buffer_;  // records not yet written to the fd
  int64_t last_seq_ = 0;
  size_t unsynced_records_ = 0;
};

}  // namespace fdm

#endif  // FDM_SERVICE_WAL_H_
