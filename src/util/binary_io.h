#ifndef FDM_UTIL_BINARY_IO_H_
#define FDM_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fdm {

/// FNV-1a 64-bit hash — the checksum behind snapshot files and WAL records.
/// Not cryptographic; it detects torn writes and bit rot, which is all the
/// durability layer needs, and it is dependency-free. Chains: hashing `b`
/// with the hash of `a` as `seed` equals hashing `a` then `b` in one call.
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = 0xcbf29ce484222325ull);

/// The one buffer size of durable file I/O: the file window behind WAL
/// scans and snapshot reads, the snapshot writer's staging buffer and the
/// checksum pass each hold this much of a file at a time, so no read or
/// write path holds a whole segment or snapshot.
inline constexpr size_t kIoWindowBytes = 64u << 10;

/// A whole file's size and `Fnv1a64`.
struct FileChecksum {
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Hashes a file through one `kIoWindowBytes` buffer, so checksumming a
/// large file never holds it in memory.
Result<FileChecksum> ChecksumFile(const std::string& path);

/// A file opened read-only for positioned reads, closed on destruction.
/// `size()` is what `fstat` reported at `Open`: readers stop there, so a
/// file that keeps growing (the active WAL segment) reads as the prefix it
/// had when it was opened.
class ReadOnlyFile {
 public:
  static Result<ReadOnlyFile> Open(const std::string& path);

  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile& operator=(ReadOnlyFile&&) = delete;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ~ReadOnlyFile();

  uint64_t size() const { return size_; }
  /// The open descriptor, for a transfer the kernel runs from the file
  /// itself (`sendfile`); it stays owned by this object.
  int fd() const { return fd_; }

  /// Reads exactly `len` bytes at `offset` into `dst`, resuming short
  /// reads and EINTR; a file that ends first (it shrank) is an error.
  Status ReadAt(uint64_t offset, char* dst, size_t len) const;

 private:
  ReadOnlyFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

/// The bytes of an open file from `offset` to where it ended at open
/// (`ReadOnlyFile::size`): a fetch reply's body, read into a buffer by
/// `AppendFileRange` or sent from the file by the TCP front end.
struct FileRange {
  ReadOnlyFile file;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Opens `path` and takes its bytes from `offset` to its end; nothing is
/// read yet. Offset 0 is the whole file; an offset past the end is an
/// error.
Result<FileRange> OpenFileRange(const std::string& path, uint64_t offset);

/// Appends `range`'s bytes to `*out`, read straight into the tail of `out`,
/// so the bytes are held once, in the caller's buffer. A file that shrank
/// since it was opened is an error, and on any error `*out` is left as it
/// was.
Status AppendFileRange(const FileRange& range, std::string* out);

/// The one bounded reader of the durable layer: a window over a byte
/// source that a parser consumes from the front.
///
/// Over a file it preads `kIoWindowBytes` at a time. When a parse needs
/// more bytes than the window holds, the unconsumed bytes move to the
/// front and the rest refills; the buffer grows only to fit one item
/// larger than the window. Over in-memory bytes the window is those bytes
/// and never refills, so file and memory sources run the same parse code.
///
/// Positions are source offsets: `position()` is the offset of the next
/// unconsumed byte, and the window ends at `end()`.
class FileWindow {
 public:
  /// In-memory bytes, borrowed: they must outlive the window. `position`
  /// is the source offset of their first byte.
  explicit FileWindow(std::string_view bytes, uint64_t position = 0);
  /// In-memory bytes, owned: the window is bytes [begin, end) of `bytes`.
  FileWindow(std::string bytes, size_t begin, size_t end);
  /// Bytes [begin, end) of `file`; `end` must not pass `file.size()`.
  FileWindow(ReadOnlyFile file, uint64_t begin, uint64_t end);

  /// Makes at least `n` unconsumed bytes available in `view()`. False when
  /// the source ends first, or when a read fails (`status()` is then
  /// non-OK); either way nothing is consumed.
  bool Fill(size_t n) { return len_ - pos_ >= n || Refill(n); }

  /// The unconsumed bytes held; valid until the next `Fill` or `Read`.
  std::string_view view() const {
    return std::string_view(base() + pos_, len_ - pos_);
  }
  /// Consumes `n` bytes of `view()`.
  void Consume(size_t n) { pos_ += n; }

  /// Copies the next `n` bytes into `dst` and consumes them, refilling as
  /// often as it takes (`n` may exceed the window). False as for `Fill`.
  bool Read(void* dst, size_t n) {
    if (len_ - pos_ >= n) {
      if (n != 0) std::memcpy(dst, base() + pos_, n);
      pos_ += n;
      return true;
    }
    return ReadSlow(static_cast<char*>(dst), n);
  }

  uint64_t position() const { return start_ + pos_; }
  uint64_t end() const { return end_; }
  uint64_t remaining() const { return end_ - position(); }

  /// Non-OK after a failed file read.
  const Status& status() const { return status_; }

 private:
  const char* base() const {
    return borrowed_ ? bytes_.data() : buf_.data();
  }
  bool Refill(size_t n);
  bool ReadSlow(char* dst, size_t n);

  bool borrowed_ = false;
  std::string_view bytes_;           // borrowed source bytes
  std::string buf_;                  // owned bytes, or the file window
  std::optional<ReadOnlyFile> file_;
  uint64_t start_ = 0;  // source offset of base()[0]
  size_t pos_ = 0;      // bytes of base() consumed
  size_t len_ = 0;      // bytes of base() held
  uint64_t end_ = 0;    // source offset the window stops at
  Status status_;
};

/// Writer for the versioned, checksummed snapshot format.
///
/// A snapshot is framed as
///
///   magic "FDMSNAP1" (8 bytes) | format version u32 | payload size u64 |
///   payload | FNV-1a 64 of payload
///
/// with every scalar little-endian. A default-constructed writer keeps the
/// payload in memory and frames it on `Serialize` (tests, shipped bytes).
/// A writer bound to a path streams instead: the frame goes to
/// `<path>.tmp` through one `kIoWindowBytes` buffer while a running FNV-1a
/// follows the payload, and `Commit` appends the checksum, patches the
/// size field, fsyncs and renames over `path` — so the file is never held
/// whole, and a crash mid-snapshot never clobbers the previous good one.
/// A bound writer destroyed without `Commit` removes its temp file. The
/// first failed write latches; `Commit` reports it.
class SnapshotWriter {
 public:
  static constexpr char kMagic[8] = {'F', 'D', 'M', 'S', 'N', 'A', 'P', '1'};
  /// Bumped whenever any sink's snapshot payload layout changes (v2 added
  /// the per-sink state_version field), so an old-format file is rejected
  /// cleanly at the header instead of being silently misparsed field by
  /// field.
  static constexpr uint32_t kFormatVersion = 2;
  /// magic | version | payload size.
  static constexpr size_t kHeaderBytes =
      sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t);

  /// Keeps the payload in memory, for `Serialize`.
  SnapshotWriter() = default;
  /// Streams the framed snapshot towards `path`; see `Commit`.
  explicit SnapshotWriter(std::string path);

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;
  ~SnapshotWriter();

  void WriteU8(uint8_t v) { Raw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v) { Raw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Raw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Raw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Raw(&v, sizeof(v)); }
  void WriteDouble(double v) { Raw(&v, sizeof(v)); }

  /// Length-prefixed string (u64 length + bytes).
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    Raw(s.data(), s.size());
  }

  /// Length-prefixed spans, element-wise little-endian.
  void WriteDoubleSpan(std::span<const double> v) {
    WriteU64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  void WriteI64Span(std::span<const int64_t> v) {
    WriteU64(v.size());
    Raw(v.data(), v.size() * sizeof(int64_t));
  }
  void WriteI32Span(std::span<const int32_t> v) {
    WriteU64(v.size());
    Raw(v.data(), v.size() * sizeof(int32_t));
  }

  /// Unframed payload size so far.
  size_t PayloadBytes() const { return payload_bytes_; }

  /// The complete framed snapshot (header + payload + checksum) of an
  /// in-memory writer.
  std::string Serialize() const;

  /// Finishes a writer bound to a path: flushes the payload, appends its
  /// checksum, writes the payload size into the header, fsyncs, renames
  /// the temp file over the path and fsyncs the directory. The file equals
  /// `Serialize()` of an in-memory writer given the same writes.
  Status Commit();

 private:
  void Raw(const void* data, size_t len) {
    if (len == 0) return;  // empty spans legitimately pass data() == null
    payload_bytes_ += len;
    if (path_.empty()) {
      buffer_.append(static_cast<const char*>(data), len);
    } else {
      Stream(static_cast<const char*>(data), len);
    }
  }
  /// The bound writer's side of `Raw`.
  void Stream(const char* data, size_t len);
  /// Writes the staged bytes to the temp file.
  void Flush();
  /// Closes and removes the temp file of an uncommitted bound writer.
  void Abandon();

  std::string path_;  // empty: in memory
  int fd_ = -1;
  /// In memory: the payload. Bound: frame bytes not yet written.
  std::string buffer_;
  size_t payload_bytes_ = 0;
  bool flushed_ = false;  // bound: frame bytes written to the file yet
  uint64_t checksum_ = Fnv1a64(nullptr, 0);  // bound: running payload hash
  Status status_;
};

/// Bounds-checked reader over a framed snapshot with a sticky error: the
/// first malformed read latches a non-OK `status()` and every later read
/// returns a zero value, so deserialization code reads linearly and checks
/// once (plus wherever a value gates a loop or allocation). It reads
/// through a `FileWindow`, so a file is never held whole.
class SnapshotReader {
 public:
  /// Verifies magic, version, payload size, and checksum of `framed`.
  static Result<SnapshotReader> FromBytes(std::string framed);
  /// The same checks over a file: the checksum in one streaming pass, then
  /// a second pass parses, so no field is read before the checksum holds.
  static Result<SnapshotReader> FromFile(const std::string& path);

  uint8_t ReadU8() { return ReadScalar<uint8_t>(); }
  bool ReadBool() { return ReadU8() != 0; }
  uint32_t ReadU32() { return ReadScalar<uint32_t>(); }
  uint64_t ReadU64() { return ReadScalar<uint64_t>(); }
  int32_t ReadI32() { return ReadScalar<int32_t>(); }
  int64_t ReadI64() { return ReadScalar<int64_t>(); }
  double ReadDouble() { return ReadScalar<double>(); }

  std::string ReadString();
  std::vector<double> ReadDoubleVec();
  std::vector<int64_t> ReadI64Vec();
  std::vector<int32_t> ReadI32Vec();

  /// Reads the string at the cursor without consuming it — the snapshot
  /// dispatcher peeks the algorithm type tag, then hands the reader to the
  /// matching `Restore`, which consumes (and re-verifies) the tag itself.
  std::string PeekString();

  /// OK iff every read so far was in-bounds.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Marks the reader failed (used by deserializers that spot a semantic
  /// inconsistency, e.g. a dimension mismatch).
  void Fail(std::string message) {
    if (status_.ok()) {
      status_ = Status::IoError("snapshot corrupt: " + std::move(message));
    }
  }

  /// Bytes of payload not yet consumed.
  size_t Remaining() const { return window_.remaining(); }

 private:
  explicit SnapshotReader(FileWindow window) : window_(std::move(window)) {}

  /// Copies the next `n` payload bytes into `dst`; on a short payload or a
  /// failed read, latches the error and returns false.
  bool Take(void* dst, size_t n);

  template <typename T>
  T ReadScalar() {
    T v{};
    if (status_.ok() && !Take(&v, sizeof(T))) v = T{};
    return v;
  }

  template <typename T>
  std::vector<T> ReadVec();

  FileWindow window_;
  Status status_;
};

}  // namespace fdm

#endif  // FDM_UTIL_BINARY_IO_H_
