#include "service/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/timer.h"

namespace fdm {

namespace {

// Durability-plane metrics. Cached references: the registry getters take a
// lock, so resolve each metric once and reuse the (never-dangling)
// reference.
obs::Counter& WalRecordsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_wal_append_records_total", "records appended to the WAL");
  return c;
}
obs::Counter& WalBytesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_wal_append_bytes_total", "framed record bytes appended to the WAL");
  return c;
}
obs::Histogram& WalAppendBatchHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_wal_append_batch_ns", "latency of WAL AppendBatch calls",
      /*slow_threshold_ns=*/50'000'000);
  return h;
}
obs::Histogram& WalFsyncHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_wal_fsync_ns", "latency of WAL fsyncs (flush included)",
      /*slow_threshold_ns=*/250'000'000);
  return h;
}
obs::Counter& WalRotateCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_wal_rotate_total", "WAL segment files opened (first one included)");
  return c;
}
obs::Histogram& WalReplayHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_wal_replay_ns", "latency of whole WAL replays",
      /*slow_threshold_ns=*/2'000'000'000);
  return h;
}
obs::Counter& WalReplayRecordsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_wal_replay_records_total", "records replayed from the WAL");
  return c;
}

constexpr char kSegmentMagic[8] = {'F', 'D', 'M', 'W', 'A', 'L', '0', '1'};
constexpr size_t kRecordHeaderBytes = sizeof(uint32_t);
constexpr size_t kRecordChecksumBytes = sizeof(uint64_t);
/// A record payload beyond this is corruption, not data (it would imply a
/// ~8M-dimensional point).
constexpr uint32_t kMaxPayloadBytes = 64u << 20;
/// Flush the append buffer to the fd once it grows past this.
constexpr size_t kFlushThresholdBytes = 256u << 10;
/// Capacity the append buffer keeps across a `Sync`; a larger one (a big
/// batch framed it) is released once its bytes are in the file, so a
/// session does not pin the capacity of the largest batch it ever took.
constexpr size_t kRetainedBufferBytes = 4u << 10;

/// Bytes one record of `dim` coordinates takes framed: length, payload
/// (seq, id, group, dim, coords), checksum.
size_t FramedRecordBytes(size_t dim) {
  return kRecordHeaderBytes + sizeof(uint64_t) + sizeof(int64_t) +
         sizeof(int32_t) + sizeof(uint32_t) + dim * sizeof(double) +
         kRecordChecksumBytes;
}

std::string SegmentName(int64_t first_seq) {
  return WalSegmentFileName(first_seq);
}

/// A mid-log zero-length segment is skippable noise, but it sits on disk
/// until pruning passes it and replication re-enumerates segments on every
/// poll — warn once per path, not once per scan. (The *newest* segment is
/// legitimately 0 bytes right after a rotation, while its magic still sits
/// in the append buffer — callers must not report that at all.)
void WarnZeroLengthSegmentOnce(const std::string& path) {
  static std::mutex mu;
  static std::set<std::string>& warned = *new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  if (warned.size() > 256) warned.clear();  // bound a long-lived process
  if (!warned.insert(path).second) return;
  std::fprintf(stderr,
               "fdm wal: skipping zero-length segment %s (crash artifact)\n",
               path.c_str());
}

/// Parses a `wal-<first_seq>.log` file name; returns -1 when `name` is not
/// a segment file.
int64_t ParseSegmentName(const std::string& name) {
  if (name.size() != SegmentName(0).size() || name.rfind("wal-", 0) != 0 ||
      name.substr(name.size() - 4) != ".log") {
    return -1;
  }
  char* end = nullptr;
  const long long first = std::strtoll(name.c_str() + 4, &end, 10);
  if (end == nullptr || std::strcmp(end, ".log") != 0 || first < 1) return -1;
  return first;
}

template <typename T>
void AppendScalar(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T ReadScalarAt(std::string_view bytes, size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

/// A segment file's window from `start_offset` to its size at open.
FileWindow SegmentWindow(ReadOnlyFile file, uint64_t start_offset) {
  const uint64_t size = file.size();
  return FileWindow(std::move(file), std::min(start_offset, size), size);
}

}  // namespace

std::string WalSegmentFileName(int64_t first_seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%020lld.log",
                static_cast<long long>(first_seq));
  return name;
}

WalSegmentCursor::WalSegmentCursor(std::string_view bytes, size_t start_offset)
    : window_(bytes, start_offset) {
  Start(start_offset);
}

WalSegmentCursor::WalSegmentCursor(ReadOnlyFile file, uint64_t start_offset)
    : window_(SegmentWindow(std::move(file), start_offset)) {
  Start(start_offset);
}

void WalSegmentCursor::Start(uint64_t start_offset) {
  valid_bytes_ = start_offset;
  if (start_offset != 0) {
    // A ranged read starts on a record boundary, never inside the magic.
    if (start_offset < sizeof(kSegmentMagic)) {
      status_ = Status::IoError("WAL range starts inside the segment magic");
    }
    return;
  }
  if (!Fill(sizeof(kSegmentMagic)) ||
      std::memcmp(window_.view().data(), kSegmentMagic,
                  sizeof(kSegmentMagic)) != 0) {
    // A short segment is a bad magic too, unless the read itself failed.
    if (status_.ok()) {
      status_ = Status::IoError("not a WAL segment (bad magic)");
    }
    return;
  }
  window_.Consume(sizeof(kSegmentMagic));
  valid_bytes_ = window_.position();
}

bool WalSegmentCursor::Fill(size_t n) {
  if (window_.Fill(n)) return true;
  if (!window_.status().ok()) status_ = window_.status();
  return false;
}

bool WalSegmentCursor::Next(WalRecordView& record) {
  if (!status_.ok()) return false;
  if (!Fill(kRecordHeaderBytes)) return false;
  const uint32_t len = ReadScalarAt<uint32_t>(window_.view(), 0);
  if (len > kMaxPayloadBytes ||
      !Fill(kRecordHeaderBytes + len + kRecordChecksumBytes)) {
    return false;  // torn or corrupt tail
  }
  const std::string_view bytes = window_.view();
  const char* payload = bytes.data() + kRecordHeaderBytes;
  const uint64_t stored =
      ReadScalarAt<uint64_t>(bytes, kRecordHeaderBytes + len);
  if (stored != Fnv1a64(payload, len)) return false;  // torn mid-payload

  // The checksum held, so a malformed payload is corruption, not a crash.
  constexpr uint32_t kFixed = sizeof(uint64_t) + sizeof(int64_t) +
                              sizeof(int32_t) + sizeof(uint32_t);
  if (len < kFixed) {
    status_ = Status::IoError("malformed WAL record payload");
    return false;
  }
  size_t at = 0;
  uint64_t seq = 0;
  std::memcpy(&seq, payload + at, sizeof(seq)), at += sizeof(seq);
  std::memcpy(&record.id, payload + at, sizeof(record.id)),
      at += sizeof(record.id);
  std::memcpy(&record.group, payload + at, sizeof(record.group)),
      at += sizeof(record.group);
  uint32_t dim = 0;
  std::memcpy(&dim, payload + at, sizeof(dim)), at += sizeof(dim);
  if (len != kFixed + dim * sizeof(double)) {
    status_ = Status::IoError("malformed WAL record payload");
    return false;
  }
  record.seq = static_cast<int64_t>(seq);
  // memcpy into aligned scratch — the payload sits at an arbitrary byte
  // offset, so reading doubles in place would be a misaligned access.
  coords_.resize(dim);
  std::memcpy(coords_.data(), payload + at, dim * sizeof(double));
  record.coords = coords_;

  window_.Consume(kRecordHeaderBytes + len + kRecordChecksumBytes);
  valid_bytes_ = window_.position();
  return true;
}

Result<std::vector<WalSegmentInfo>> WriteAheadLog::ListSegments(
    const std::string& dir) {
  std::vector<WalSegmentInfo> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const int64_t first = ParseSegmentName(name);
    if (first < 1) continue;
    WalSegmentInfo info;
    info.first_seq = first;
    info.path = entry.path().string();
    std::error_code size_ec;
    info.bytes = entry.file_size(size_ec);
    if (size_ec) info.bytes = 0;
    segments.push_back(std::move(info));
  }
  if (ec) {
    return Status::IoError("cannot list WAL dir " + dir + ": " + ec.message());
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.first_seq < b.first_seq;
            });
  // Zero-length files hold no records and are dropped. Only a *mid-log*
  // one is a crash artifact worth a warning; the newest is legitimately
  // empty right after a rotation (magic still in the append buffer).
  if (!segments.empty() && segments.back().bytes == 0) segments.pop_back();
  std::erase_if(segments, [](const WalSegmentInfo& seg) {
    if (seg.bytes != 0) return false;
    WarnZeroLengthSegmentOnce(seg.path);
    return true;
  });
  return segments;
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : dir_(std::move(other.dir_)),
      options_(other.options_),
      segment_first_seqs_(std::move(other.segment_first_seqs_)),
      fd_(other.fd_),
      active_segment_bytes_(other.active_segment_bytes_),
      buffer_(std::move(other.buffer_)),
      last_seq_(other.last_seq_),
      unsynced_records_(other.unsynced_records_) {
  other.fd_ = -1;
  other.unsynced_records_ = 0;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    CloseFd();
    dir_ = std::move(other.dir_);
    options_ = other.options_;
    segment_first_seqs_ = std::move(other.segment_first_seqs_);
    fd_ = other.fd_;
    active_segment_bytes_ = other.active_segment_bytes_;
    buffer_ = std::move(other.buffer_);
    last_seq_ = other.last_seq_;
    unsynced_records_ = other.unsynced_records_;
    other.fd_ = -1;
    other.unsynced_records_ = 0;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    (void)Sync();  // best-effort durability on clean shutdown
    CloseFd();
  }
}

void WriteAheadLog::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WriteAheadLog> WriteAheadLog::Open(std::string dir,
                                          WalOptions options) {
  if (options.segment_bytes < 1u << 10) options.segment_bytes = 1u << 10;
  if (options.sync_every == 0) options.sync_every = 1;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create WAL dir " + dir + ": " +
                           ec.message());
  }
  WriteAheadLog wal(std::move(dir), options);

  // Discover existing segments.
  for (const auto& entry : std::filesystem::directory_iterator(wal.dir_, ec)) {
    const int64_t first = ParseSegmentName(entry.path().filename().string());
    if (first < 1) continue;
    wal.segment_first_seqs_.push_back(first);
  }
  if (ec) {
    return Status::IoError("cannot list WAL dir " + wal.dir_ + ": " +
                           ec.message());
  }
  std::sort(wal.segment_first_seqs_.begin(), wal.segment_first_seqs_.end());

  if (wal.segment_first_seqs_.empty()) {
    wal.last_seq_ = 0;
    if (Status s = wal.OpenSegment(1); !s.ok()) return s;
    return wal;
  }

  // Recover last_seq from the newest segment and drop a torn tail so new
  // appends land on a record boundary.
  const int64_t newest_first = wal.segment_first_seqs_.back();
  const std::string newest_path =
      wal.dir_ + "/" + SegmentName(newest_first);
  auto newest = ReadOnlyFile::Open(newest_path);
  if (!newest.ok()) return newest.status();
  if (newest->size() < sizeof(kSegmentMagic)) {
    // A crash can leave a freshly rotated segment empty (its magic was
    // buffered but never flushed). Re-initialize it in place.
    const int fd = ::open(newest_path.c_str(), O_WRONLY | O_TRUNC);
    if (fd < 0) {
      return Status::IoError("cannot reopen empty WAL segment: " +
                             newest_path + ": " + std::strerror(errno));
    }
    wal.fd_ = fd;
    wal.buffer_.assign(kSegmentMagic, sizeof(kSegmentMagic));
    wal.active_segment_bytes_ = 0;
    wal.last_seq_ = newest_first - 1;
    return wal;
  }
  WalSegmentCursor cursor(std::move(newest.value()));
  WalRecordView record;
  int64_t newest_last_seq = 0;
  while (cursor.Next(record)) newest_last_seq = record.seq;
  if (!cursor.status().ok()) {
    return Status::IoError(cursor.status().message() + ": " + newest_path);
  }
  if (cursor.torn_tail()) {
    if (::truncate(newest_path.c_str(),
                   static_cast<off_t>(cursor.valid_bytes())) != 0) {
      return Status::IoError("cannot truncate torn WAL tail: " + newest_path +
                             ": " + std::strerror(errno));
    }
  }
  wal.last_seq_ = newest_last_seq != 0 ? newest_last_seq : newest_first - 1;

  const int fd = ::open(newest_path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::IoError("cannot open WAL segment for append: " +
                           newest_path + ": " + std::strerror(errno));
  }
  wal.fd_ = fd;
  wal.active_segment_bytes_ = cursor.valid_bytes();
  return wal;
}

Status WriteAheadLog::OpenSegment(int64_t first_seq) {
  if (Status s = FlushBuffer(); !s.ok()) return s;
  CloseFd();
  const std::string path = dir_ + "/" + SegmentName(first_seq);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create WAL segment: " + path + ": " +
                           std::strerror(errno));
  }
  fd_ = fd;
  buffer_.assign(kSegmentMagic, sizeof(kSegmentMagic));
  active_segment_bytes_ = 0;
  segment_first_seqs_.push_back(first_seq);
  WalRotateCounter().Inc();
  return Status::Ok();
}

Status WriteAheadLog::FlushBuffer() {
  if (buffer_.empty()) return Status::Ok();
  FDM_CHECK(fd_ >= 0);
  size_t written = 0;
  while (written < buffer_.size()) {
    const ssize_t n =
        ::write(fd_, buffer_.data() + written, buffer_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("WAL write failed: " + dir_ + ": " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  active_segment_bytes_ += buffer_.size();
  buffer_.clear();
  return Status::Ok();
}

Status WriteAheadLog::AppendLocked(const StreamPoint& point) {
  const int64_t seq = last_seq_ + 1;
  const uint32_t dim = static_cast<uint32_t>(point.coords.size());
  const uint32_t payload_len = static_cast<uint32_t>(
      FramedRecordBytes(dim) - kRecordHeaderBytes - kRecordChecksumBytes);

  const size_t payload_begin = buffer_.size() + kRecordHeaderBytes;
  AppendScalar<uint32_t>(buffer_, payload_len);
  AppendScalar<uint64_t>(buffer_, static_cast<uint64_t>(seq));
  AppendScalar<int64_t>(buffer_, point.id);
  AppendScalar<int32_t>(buffer_, point.group);
  AppendScalar<uint32_t>(buffer_, dim);
  buffer_.append(reinterpret_cast<const char*>(point.coords.data()),
                 dim * sizeof(double));
  AppendScalar<uint64_t>(
      buffer_, Fnv1a64(buffer_.data() + payload_begin, payload_len));

  last_seq_ = seq;
  ++unsynced_records_;
  WalRecordsCounter().Inc();
  WalBytesCounter().Add(FramedRecordBytes(dim));

  if (buffer_.size() >= kFlushThresholdBytes) {
    if (Status s = FlushBuffer(); !s.ok()) return s;
  }
  if (active_segment_bytes_ + buffer_.size() >= options_.segment_bytes) {
    // Seal the segment durably before rotating so `TruncateBefore` after a
    // future snapshot never deletes the only copy of unsynced records.
    if (Status s = Sync(); !s.ok()) return s;
    if (Status s = OpenSegment(last_seq_ + 1); !s.ok()) return s;
  }
  return Status::Ok();
}

Status WriteAheadLog::AppendBatch(std::span<const StreamPoint> batch) {
  obs::ScopedTimer timer(WalAppendBatchHist(), dir_,
                         static_cast<uint64_t>(last_seq_));
  // Size the buffer for the batch (up to one flush) in one step instead of
  // regrowing it by doubling while framing.
  size_t framed = 0;
  for (const StreamPoint& point : batch) {
    framed += FramedRecordBytes(point.coords.size());
  }
  buffer_.reserve(buffer_.size() + std::min(framed, kFlushThresholdBytes));
  for (const StreamPoint& point : batch) {
    if (Status s = AppendLocked(point); !s.ok()) return s;
  }
  if (unsynced_records_ >= options_.sync_every) return Sync();
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  Timer timer;
  if (Status s = FlushBuffer(); !s.ok()) return s;
  if (buffer_.capacity() > kRetainedBufferBytes) std::string().swap(buffer_);
  if (unsynced_records_ == 0) return Status::Ok();
  FDM_CHECK(fd_ >= 0);
  if (::fsync(fd_) != 0) {
    return Status::IoError("WAL fsync failed: " + dir_ + ": " +
                           std::strerror(errno));
  }
  unsynced_records_ = 0;
  WalFsyncHist().RecordWithContext(
      static_cast<uint64_t>(timer.ElapsedNanos()), dir_,
      static_cast<uint64_t>(last_seq_));
  return Status::Ok();
}

std::vector<std::string> WriteAheadLog::SegmentPaths() const {
  std::vector<std::string> paths;
  paths.reserve(segment_first_seqs_.size());
  for (const int64_t first : segment_first_seqs_) {
    paths.push_back(dir_ + "/" + SegmentName(first));
  }
  return paths;
}

Result<int64_t> WriteAheadLog::Replay(int64_t after_seq,
                                      WalBatchApplier& applier) const {
  FDM_CHECK_MSG(buffer_.empty() || buffer_.size() == sizeof(kSegmentMagic),
                "Sync() the WAL before Replay()");
  obs::ScopedTimer replay_timer(WalReplayHist(), dir_,
                                static_cast<uint64_t>(after_seq));
  int64_t replayed = 0;
  int64_t prev_seq = after_seq;

  for (size_t s = 0; s < segment_first_seqs_.size(); ++s) {
    // A whole segment is skippable when the next segment starts at or
    // before the replay point — every record in it has a smaller seq.
    if (s + 1 < segment_first_seqs_.size() &&
        segment_first_seqs_[s + 1] <= after_seq + 1) {
      continue;
    }
    const std::string path = dir_ + "/" + SegmentName(segment_first_seqs_[s]);
    auto file = ReadOnlyFile::Open(path);
    if (!file.ok()) return file.status();
    if (file->size() == 0) {
      // A crash between segment creation and the first flush leaves a
      // zero-length file (the magic was still buffered). It holds no
      // records, so skip it wherever it sits — warning only mid-log (the
      // newest segment is legitimately empty right after a rotation).
      if (s + 1 != segment_first_seqs_.size()) WarnZeroLengthSegmentOnce(path);
      continue;
    }
    if (file->size() < sizeof(kSegmentMagic)) {
      // A partially flushed magic; only the newest segment can legally be
      // in this state (the crash tail of the active segment).
      if (s + 1 == segment_first_seqs_.size()) continue;
      return Status::IoError("truncated WAL segment mid-log: " + path);
    }

    WalSegmentCursor cursor(std::move(file.value()));
    WalRecordView record;
    while (cursor.Next(record)) {
      if (record.seq <= after_seq) continue;  // before the snapshot: skip
      if (record.seq != prev_seq + 1) {
        return Status::IoError(
            "WAL sequence gap: expected " + std::to_string(prev_seq + 1) +
            ", found " + std::to_string(record.seq) + " in " + path);
      }
      if (Status added = applier.Add(record); !added.ok()) {
        return Status::IoError(added.message() + " in " + path);
      }
      prev_seq = record.seq;
      ++replayed;
      if (applier.ShouldFlush()) applier.Flush();
    }
    if (!cursor.status().ok()) {
      return Status::IoError(cursor.status().message() + ": " + path);
    }
    if (cursor.torn_tail() && s + 1 != segment_first_seqs_.size()) {
      return Status::IoError("corrupt record mid-WAL (not the newest "
                             "segment): " + path);
    }
  }
  applier.Flush();
  WalReplayRecordsCounter().Add(static_cast<uint64_t>(replayed));
  return replayed;
}

Status WriteAheadLog::TruncateBefore(int64_t before_seq) {
  size_t removable = 0;
  while (removable + 1 < segment_first_seqs_.size() &&
         segment_first_seqs_[removable + 1] <= before_seq) {
    ++removable;
  }
  for (size_t i = 0; i < removable; ++i) {
    const std::string path = dir_ + "/" + SegmentName(segment_first_seqs_[i]);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (ec) {
      return Status::IoError("cannot remove WAL segment " + path + ": " +
                             ec.message());
    }
  }
  segment_first_seqs_.erase(segment_first_seqs_.begin(),
                            segment_first_seqs_.begin() + removable);
  return Status::Ok();
}

}  // namespace fdm
