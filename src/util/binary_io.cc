#include "util/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/check.h"

namespace fdm {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

/// Offset of the payload-size field in a snapshot frame.
constexpr size_t kSizeFieldAt =
    sizeof(SnapshotWriter::kMagic) + sizeof(uint32_t);
constexpr size_t kChecksumBytes = sizeof(uint64_t);

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + ": " + path + ": " + std::strerror(errno));
}

/// Writes all of `data` to `fd`, resuming short writes and EINTR.
bool WriteAll(int fd, const void* data, size_t len) {
  const char* bytes = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, bytes, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// `Fnv1a64` of bytes [begin, end) of `file`, one `kIoWindowBytes` read at
/// a time.
Result<uint64_t> HashRange(const ReadOnlyFile& file, uint64_t begin,
                           uint64_t end) {
  uint64_t hash = Fnv1a64(nullptr, 0);
  char buf[kIoWindowBytes];
  while (begin < end) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(sizeof(buf), end - begin));
    if (Status s = file.ReadAt(begin, buf, n); !s.ok()) return s;
    hash = Fnv1a64(buf, n, hash);
    begin += n;
  }
  return hash;
}

void AppendFrameHeader(uint64_t payload_bytes, std::string* out) {
  const uint32_t version = SnapshotWriter::kFormatVersion;
  out->append(SnapshotWriter::kMagic, sizeof(SnapshotWriter::kMagic));
  out->append(reinterpret_cast<const char*>(&version), sizeof(version));
  out->append(reinterpret_cast<const char*>(&payload_bytes),
              sizeof(payload_bytes));
}

/// Checks a frame's leading `kHeaderBytes` (`header`, read only when the
/// frame can hold them) against the frame's total size; returns the
/// payload size.
Result<uint64_t> CheckFrameHeader(const char* header, uint64_t total) {
  constexpr size_t kHeader = SnapshotWriter::kHeaderBytes;
  if (total < kHeader + kChecksumBytes) {
    return Status::IoError("snapshot truncated: " + std::to_string(total) +
                           " bytes");
  }
  if (std::memcmp(header, SnapshotWriter::kMagic,
                  sizeof(SnapshotWriter::kMagic)) != 0) {
    return Status::IoError("snapshot magic mismatch (not a snapshot file)");
  }
  uint32_t version = 0;
  std::memcpy(&version, header + sizeof(SnapshotWriter::kMagic),
              sizeof(version));
  if (version != SnapshotWriter::kFormatVersion) {
    return Status::Unsupported("snapshot format version " +
                               std::to_string(version) + " (reader supports " +
                               std::to_string(SnapshotWriter::kFormatVersion) +
                               ")");
  }
  uint64_t size = 0;
  std::memcpy(&size, header + kSizeFieldAt, sizeof(size));
  // Compare against the actual payload room (known >= 0 from the length
  // check above) — `kHeader + size` could wrap for a corrupt size.
  const uint64_t room = total - kHeader - kChecksumBytes;
  if (size != room) {
    return Status::IoError("snapshot payload size mismatch: header says " +
                           std::to_string(size) + ", file has " +
                           std::to_string(room));
  }
  return size;
}

/// fsyncs the directory holding `path`, so a rename into it is durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string parent =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoError("cannot open dir for fsync", parent);
  if (::fsync(dir_fd) != 0) {
    const Status error = ErrnoError("dir fsync failed", parent);
    ::close(dir_fd);
    return error;
  }
  ::close(dir_fd);
  return Status::Ok();
}

}  // namespace

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open for read", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status error = ErrnoError("cannot stat", path);
    ::close(fd);
    return error;
  }
  return ReadOnlyFile(path, fd, static_cast<uint64_t>(st.st_size));
}

ReadOnlyFile::ReadOnlyFile(ReadOnlyFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      size_(other.size_) {}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status ReadOnlyFile::ReadAt(uint64_t offset, char* dst, size_t len) const {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, dst + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoError("read failed", path_);
    if (n == 0) return Status::IoError("file shrank while read: " + path_);
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<FileChecksum> ChecksumFile(const std::string& path) {
  auto file = ReadOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  auto hash = HashRange(*file, 0, file->size());
  if (!hash.ok()) return hash.status();
  return FileChecksum{file->size(), *hash};
}

Result<FileRange> OpenFileRange(const std::string& path, uint64_t offset) {
  auto file = ReadOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  const uint64_t size = file->size();
  if (offset > size) {
    return Status::IoError("read offset " + std::to_string(offset) +
                           " past end of " + path + " (" +
                           std::to_string(size) + " bytes)");
  }
  return FileRange{std::move(file.value()), offset, size - offset};
}

Status AppendFileRange(const FileRange& range, std::string* out) {
  const size_t at = out->size();
  out->resize(at + range.length);
  if (Status s = range.file.ReadAt(range.offset, out->data() + at,
                                   range.length);
      !s.ok()) {
    out->resize(at);
    return s;
  }
  return Status::Ok();
}

FileWindow::FileWindow(std::string_view bytes, uint64_t position)
    : borrowed_(true),
      bytes_(bytes),
      start_(position),
      len_(bytes.size()),
      end_(position + bytes.size()) {}

FileWindow::FileWindow(std::string bytes, size_t begin, size_t end)
    : buf_(std::move(bytes)), pos_(begin), len_(end), end_(end) {
  FDM_CHECK(begin <= end && end <= buf_.size());
}

FileWindow::FileWindow(ReadOnlyFile file, uint64_t begin, uint64_t end)
    : file_(std::move(file)), start_(begin), end_(end) {
  FDM_CHECK(begin <= end && end <= file_->size());
}

bool FileWindow::Refill(size_t n) {
  if (!file_.has_value() || !status_.ok() || remaining() < n) return false;
  // Keep the unconsumed bytes, moved to the front. The window is
  // `kIoWindowBytes` (less for a shorter source) and grows only to hold
  // one item larger than that.
  const size_t held = len_ - pos_;
  const size_t want = static_cast<size_t>(std::max<uint64_t>(
      n, std::min<uint64_t>(kIoWindowBytes, remaining())));
  if (buf_.size() < want) {
    std::string grown(want, '\0');
    if (held != 0) std::memcpy(grown.data(), buf_.data() + pos_, held);
    buf_.swap(grown);
  } else if (held != 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, held);
  }
  start_ += pos_;
  pos_ = 0;
  len_ = held;
  const size_t more = static_cast<size_t>(
      std::min<uint64_t>(buf_.size() - len_, end_ - (start_ + len_)));
  if (Status s = file_->ReadAt(start_ + len_, buf_.data() + len_, more);
      !s.ok()) {
    status_ = std::move(s);
    return false;
  }
  len_ += more;
  return true;
}

bool FileWindow::ReadSlow(char* dst, size_t n) {
  if (remaining() < n) return false;
  while (n > 0) {
    if (len_ == pos_ && !Refill(1)) return false;
    const size_t take = std::min(n, len_ - pos_);
    std::memcpy(dst, base() + pos_, take);
    pos_ += take;
    dst += take;
    n -= take;
  }
  return true;
}

SnapshotWriter::SnapshotWriter(std::string path) : path_(std::move(path)) {
  const std::string tmp = path_ + ".tmp";
  fd_ = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    status_ = ErrnoError("cannot open for write", tmp);
    return;
  }
  // The payload size is unknown yet: `Commit` writes it over this zero.
  AppendFrameHeader(0, &buffer_);
}

SnapshotWriter::~SnapshotWriter() { Abandon(); }

void SnapshotWriter::Abandon() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  ::unlink((path_ + ".tmp").c_str());
}

void SnapshotWriter::Stream(const char* data, size_t len) {
  checksum_ = Fnv1a64(data, len, checksum_);
  if (buffer_.size() + len > kIoWindowBytes) Flush();
  if (len < kIoWindowBytes) {
    buffer_.append(data, len);
    return;
  }
  // A span the buffer cannot hold goes straight to the file.
  if (status_.ok() && !WriteAll(fd_, data, len)) {
    status_ = ErrnoError("write failed", path_ + ".tmp");
  }
  flushed_ = true;
}

void SnapshotWriter::Flush() {
  if (status_.ok() && !WriteAll(fd_, buffer_.data(), buffer_.size())) {
    status_ = ErrnoError("write failed", path_ + ".tmp");
  }
  flushed_ = true;
  buffer_.clear();
}

Status SnapshotWriter::Commit() {
  FDM_CHECK_MSG(!path_.empty(), "Commit() needs a writer bound to a path");
  const std::string tmp = path_ + ".tmp";
  const uint64_t size = payload_bytes_;
  // A snapshot that fit the buffer still has its header there; a larger
  // one gets the size written into the file in place.
  const bool header_flushed = flushed_;
  if (status_.ok() && !header_flushed) {
    std::memcpy(buffer_.data() + kSizeFieldAt, &size, sizeof(size));
  }
  buffer_.append(reinterpret_cast<const char*>(&checksum_), kChecksumBytes);
  Flush();
  if (status_.ok() && header_flushed &&
      ::pwrite(fd_, &size, sizeof(size), kSizeFieldAt) !=
          static_cast<ssize_t>(sizeof(size))) {
    status_ = ErrnoError("write failed", tmp);
  }
  if (status_.ok() && ::fsync(fd_) != 0) {
    status_ = ErrnoError("fsync failed", tmp);
  }
  if (!status_.ok()) {
    Abandon();
    return status_;
  }
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) {
    status_ = ErrnoError("close failed", tmp);
    ::unlink(tmp.c_str());
    return status_;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    status_ = Status::IoError("rename failed: " + tmp + " -> " + path_ +
                              ": " + std::strerror(errno));
    ::unlink(tmp.c_str());  // don't let retries accumulate stale temps
    return status_;
  }
  // fsync the parent directory so the rename itself is durable — callers
  // (e.g. snapshot-then-prune-WAL) order destructive steps after this
  // return, which is only sound if the new directory entry survives a
  // power failure.
  return SyncParentDir(path_);
}

std::string SnapshotWriter::Serialize() const {
  FDM_CHECK_MSG(path_.empty(), "Serialize() is for an in-memory writer");
  std::string framed;
  framed.reserve(kHeaderBytes + buffer_.size() + kChecksumBytes);
  AppendFrameHeader(buffer_.size(), &framed);
  framed.append(buffer_);
  const uint64_t checksum = Fnv1a64(buffer_.data(), buffer_.size());
  framed.append(reinterpret_cast<const char*>(&checksum), kChecksumBytes);
  return framed;
}

Result<SnapshotReader> SnapshotReader::FromBytes(std::string framed) {
  constexpr size_t kHeader = SnapshotWriter::kHeaderBytes;
  auto size = CheckFrameHeader(framed.data(), framed.size());
  if (!size.ok()) return size.status();
  uint64_t stored = 0;
  std::memcpy(&stored, framed.data() + kHeader + *size, sizeof(stored));
  if (stored != Fnv1a64(framed.data() + kHeader, *size)) {
    return Status::IoError("snapshot checksum mismatch");
  }
  const size_t end = kHeader + *size;
  return SnapshotReader(FileWindow(std::move(framed), kHeader, end));
}

Result<SnapshotReader> SnapshotReader::FromFile(const std::string& path) {
  constexpr size_t kHeader = SnapshotWriter::kHeaderBytes;
  auto file = ReadOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  const auto framing_error = [&path](const Status& s) {
    return Status(s.code(), s.message() + " (" + path + ")");
  };
  char header[kHeader] = {};
  if (file->size() >= kHeader + kChecksumBytes) {
    if (Status s = file->ReadAt(0, header, kHeader); !s.ok()) return s;
  }
  auto size = CheckFrameHeader(header, file->size());
  if (!size.ok()) return framing_error(size.status());
  // Pass 1: the checksum, streamed; pass 2 (the reader) parses.
  uint64_t stored = 0;
  if (Status s = file->ReadAt(kHeader + *size,
                              reinterpret_cast<char*>(&stored),
                              sizeof(stored));
      !s.ok()) {
    return s;
  }
  auto computed = HashRange(*file, kHeader, kHeader + *size);
  if (!computed.ok()) return computed.status();
  if (stored != *computed) {
    return framing_error(Status::IoError("snapshot checksum mismatch"));
  }
  const uint64_t end = kHeader + *size;
  return SnapshotReader(FileWindow(std::move(file.value()), kHeader, end));
}

bool SnapshotReader::Take(void* dst, size_t n) {
  if (window_.Read(dst, n)) return true;
  if (!window_.status().ok()) {
    status_ = window_.status();
  } else {
    Fail("read past end of payload");
  }
  return false;
}

std::string SnapshotReader::ReadString() {
  const uint64_t len = ReadU64();
  if (!status_.ok()) return {};
  if (len > Remaining()) {
    Fail("string length " + std::to_string(len) + " past end of payload");
    return {};
  }
  std::string s(len, '\0');
  if (!Take(s.data(), len)) return {};
  return s;
}

std::string SnapshotReader::PeekString() {
  // Never consumes and never latches: the read that follows reports.
  uint64_t len = 0;
  if (!status_.ok() || !window_.Fill(sizeof(len))) return {};
  std::memcpy(&len, window_.view().data(), sizeof(len));
  if (len > Remaining() - sizeof(len) ||
      !window_.Fill(sizeof(len) + len)) {
    return {};
  }
  return std::string(window_.view().substr(sizeof(len), len));
}

template <typename T>
std::vector<T> SnapshotReader::ReadVec() {
  const uint64_t count = ReadU64();
  if (!status_.ok()) return {};
  if (count > Remaining() / sizeof(T)) {
    Fail("vector of " + std::to_string(count) + " elements past end");
    return {};
  }
  std::vector<T> v(count);
  if (count != 0 && !Take(v.data(), count * sizeof(T))) return {};
  return v;
}

std::vector<double> SnapshotReader::ReadDoubleVec() {
  return ReadVec<double>();
}
std::vector<int64_t> SnapshotReader::ReadI64Vec() { return ReadVec<int64_t>(); }
std::vector<int32_t> SnapshotReader::ReadI32Vec() { return ReadVec<int32_t>(); }

}  // namespace fdm
