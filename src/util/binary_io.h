#ifndef FDM_UTIL_BINARY_IO_H_
#define FDM_UTIL_BINARY_IO_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fdm {

/// FNV-1a 64-bit hash — the checksum behind snapshot files and WAL records.
/// Not cryptographic; it detects torn writes and bit rot, which is all the
/// durability layer needs, and it is dependency-free. Chains: hashing `b`
/// with the hash of `a` as `seed` equals hashing `a` then `b` in one call.
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = 0xcbf29ce484222325ull);

/// A whole file's size and `Fnv1a64`.
struct FileChecksum {
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Hashes a file through a fixed 64 KiB buffer, so checksumming a large
/// file never holds it in memory. The checksum equals `Fnv1a64` of
/// `ReadFileToString(path)`.
Result<FileChecksum> ChecksumFile(const std::string& path);

/// Reads a file from byte `offset` to its end (binary) with one positioned
/// read into a string sized by `fstat` — no growth, no second copy. Offset
/// 0 is the whole file; an offset past the end is an error. Shared by the
/// snapshot reader, WAL replay and the replication source.
Result<std::string> ReadFileToString(const std::string& path,
                                     uint64_t offset = 0);

/// Buffered writer for the versioned, checksummed snapshot format.
///
/// A snapshot is framed as
///
///   magic "FDMSNAP1" (8 bytes) | format version u32 | payload size u64 |
///   payload | FNV-1a 64 of payload
///
/// with every scalar little-endian. The writer accumulates the payload in
/// memory (sink state is tiny — coresets of O(k·log∆/ε) points — which is
/// what makes checkpointing essentially free) and frames it on
/// `WriteFile`/`Serialize`. `WriteFile` is atomic: it writes the frame
/// straight from the payload buffer to a temp file in the target directory,
/// fsyncs, and renames over the destination, so a crash mid-snapshot never
/// clobbers the previous good snapshot.
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
  size_t PayloadBytes() const { return payload_.size(); }

  /// The complete framed snapshot (header + payload + checksum).
  std::string Serialize() const;

  /// Atomically writes the framed snapshot to `path` (temp file + fsync +
  /// rename + directory fsync); the file equals `Serialize()` byte for
  /// byte, without building that copy.
  Status WriteFile(const std::string& path) const;

 private:
  /// The frame's leading `kHeaderBytes` for the current payload.
  std::array<char, kHeaderBytes> FrameHeader() const;

  void Raw(const void* data, size_t len) {
    if (len == 0) return;  // empty spans legitimately pass data() == null
    const char* bytes = static_cast<const char*>(data);
    payload_.insert(payload_.end(), bytes, bytes + len);
  }

  std::string payload_;
};

/// Bounds-checked reader over a framed snapshot with a sticky error: the
/// first malformed read latches a non-OK `status()` and every later read
/// returns a zero value, so deserialization code reads linearly and checks
/// once (plus wherever a value gates a loop or allocation).
class SnapshotReader {
 public:
  /// Verifies magic, version, payload size, and checksum.
  static Result<SnapshotReader> FromBytes(std::string framed);
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
  size_t Remaining() const { return payload_.size() - offset_; }

 private:
  explicit SnapshotReader(std::string payload)
      : payload_(std::move(payload)) {}

  template <typename T>
  T ReadScalar() {
    T v{};
    if (!status_.ok()) return v;
    if (offset_ + sizeof(T) > payload_.size()) {
      Fail("read past end of payload");
      return v;
    }
    std::memcpy(&v, payload_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> ReadVec();

  std::string payload_;
  size_t offset_ = 0;
  Status status_;
};

}  // namespace fdm

#endif  // FDM_UTIL_BINARY_IO_H_
