#include "util/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

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

}  // namespace

Result<FileChecksum> ChecksumFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  FileChecksum sum;
  sum.checksum = Fnv1a64(nullptr, 0);  // the unseeded start value
  char buf[64 << 10];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status error =
          Status::IoError("read failed: " + path + ": " + std::strerror(errno));
      ::close(fd);
      return error;
    }
    if (n == 0) break;
    sum.checksum = Fnv1a64(buf, static_cast<size_t>(n), sum.checksum);
    sum.bytes += static_cast<uint64_t>(n);
  }
  ::close(fd);
  return sum;
}

std::array<char, SnapshotWriter::kHeaderBytes> SnapshotWriter::FrameHeader()
    const {
  std::array<char, kHeaderBytes> header{};
  const uint32_t version = kFormatVersion;
  const uint64_t size = payload_.size();
  std::memcpy(header.data(), kMagic, sizeof(kMagic));
  std::memcpy(header.data() + sizeof(kMagic), &version, sizeof(version));
  std::memcpy(header.data() + sizeof(kMagic) + sizeof(version), &size,
              sizeof(size));
  return header;
}

std::string SnapshotWriter::Serialize() const {
  std::string framed;
  framed.reserve(kHeaderBytes + payload_.size() + sizeof(uint64_t));
  const auto header = FrameHeader();
  framed.append(header.data(), header.size());
  framed.append(payload_);
  const uint64_t checksum = Fnv1a64(payload_.data(), payload_.size());
  framed.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return framed;
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open for write: " + tmp + ": " +
                           std::strerror(errno));
  }
  // The frame goes out in its three parts straight from the payload
  // buffer: no framed copy of the snapshot is ever built.
  const auto header = FrameHeader();
  const uint64_t checksum = Fnv1a64(payload_.data(), payload_.size());
  if (!WriteAll(fd, header.data(), header.size()) ||
      !WriteAll(fd, payload_.data(), payload_.size()) ||
      !WriteAll(fd, &checksum, sizeof(checksum))) {
    const Status error =
        Status::IoError("write failed: " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return error;
  }
  if (::fsync(fd) != 0) {
    const Status error =
        Status::IoError("fsync failed: " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return error;
  }
  if (::close(fd) != 0) {
    return Status::IoError("close failed: " + tmp + ": " +
                           std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status error = Status::IoError("rename failed: " + tmp + " -> " +
                                         path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());  // don't let retries accumulate stale temps
    return error;
  }
  // fsync the parent directory so the rename itself is durable — callers
  // (e.g. snapshot-then-prune-WAL) order destructive steps after this
  // return, which is only sound if the new directory entry survives a
  // power failure.
  const size_t slash = path.find_last_of('/');
  const std::string parent = slash == std::string::npos
                                 ? std::string(".")
                                 : path.substr(0, slash);
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IoError("cannot open dir for fsync: " + parent + ": " +
                           std::strerror(errno));
  }
  if (::fsync(dir_fd) != 0) {
    const Status error = Status::IoError("dir fsync failed: " + parent +
                                         ": " + std::strerror(errno));
    ::close(dir_fd);
    return error;
  }
  ::close(dir_fd);
  return Status::Ok();
}

Result<SnapshotReader> SnapshotReader::FromBytes(std::string framed) {
  constexpr size_t kHeader = SnapshotWriter::kHeaderBytes;
  if (framed.size() < kHeader + sizeof(uint64_t)) {
    return Status::IoError("snapshot truncated: " +
                           std::to_string(framed.size()) + " bytes");
  }
  if (std::memcmp(framed.data(), SnapshotWriter::kMagic,
                  sizeof(SnapshotWriter::kMagic)) != 0) {
    return Status::IoError("snapshot magic mismatch (not a snapshot file)");
  }
  uint32_t version = 0;
  std::memcpy(&version, framed.data() + sizeof(SnapshotWriter::kMagic),
              sizeof(version));
  if (version != SnapshotWriter::kFormatVersion) {
    return Status::Unsupported("snapshot format version " +
                               std::to_string(version) + " (reader supports " +
                               std::to_string(SnapshotWriter::kFormatVersion) +
                               ")");
  }
  uint64_t size = 0;
  std::memcpy(&size, framed.data() + sizeof(SnapshotWriter::kMagic) +
                         sizeof(version),
              sizeof(size));
  // Compare against the actual payload room (already known >= 0 from the
  // length check above) — `kHeader + size` could wrap for a corrupt size.
  if (size != framed.size() - kHeader - sizeof(uint64_t)) {
    return Status::IoError("snapshot payload size mismatch: header says " +
                           std::to_string(size) + ", file has " +
                           std::to_string(framed.size() - kHeader -
                                          sizeof(uint64_t)));
  }
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, framed.data() + kHeader + size,
              sizeof(stored_checksum));
  const uint64_t computed = Fnv1a64(framed.data() + kHeader, size);
  if (stored_checksum != computed) {
    return Status::IoError("snapshot checksum mismatch");
  }
  // Strip the framing in place: a substr would copy the whole payload.
  framed.resize(kHeader + size);
  framed.erase(0, kHeader);
  return SnapshotReader(std::move(framed));
}

Result<std::string> ReadFileToString(const std::string& path,
                                     uint64_t offset) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status error =
        Status::IoError("cannot stat: " + path + ": " + std::strerror(errno));
    ::close(fd);
    return error;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (offset > size) {
    ::close(fd);
    return Status::IoError("read offset " + std::to_string(offset) +
                           " past end of " + path + " (" +
                           std::to_string(size) + " bytes)");
  }
  std::string bytes(size - offset, '\0');
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + done, bytes.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status error =
          Status::IoError("read failed: " + path + ": " + std::strerror(errno));
      ::close(fd);
      return error;
    }
    if (n == 0) break;  // shrank since fstat: return what is there
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

Result<SnapshotReader> SnapshotReader::FromFile(const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  auto reader = FromBytes(std::move(bytes.value()));
  if (!reader.ok()) {
    return Status(reader.status().code(),
                  reader.status().message() + " (" + path + ")");
  }
  return reader;
}

std::string SnapshotReader::ReadString() {
  const uint64_t len = ReadU64();
  if (!status_.ok()) return {};
  if (len > payload_.size() - offset_) {
    Fail("string length " + std::to_string(len) + " past end of payload");
    return {};
  }
  std::string s(payload_.data() + offset_, len);
  offset_ += len;
  return s;
}

std::string SnapshotReader::PeekString() {
  const size_t saved_offset = offset_;
  const Status saved_status = status_;
  std::string s = ReadString();
  offset_ = saved_offset;
  status_ = saved_status;
  return s;
}

template <typename T>
std::vector<T> SnapshotReader::ReadVec() {
  const uint64_t count = ReadU64();
  if (!status_.ok()) return {};
  if (count > (payload_.size() - offset_) / sizeof(T)) {
    Fail("vector of " + std::to_string(count) + " elements past end");
    return {};
  }
  std::vector<T> v(count);
  if (count != 0) {  // v.data() may be null for an empty vector
    std::memcpy(v.data(), payload_.data() + offset_, count * sizeof(T));
    offset_ += count * sizeof(T);
  }
  return v;
}

std::vector<double> SnapshotReader::ReadDoubleVec() {
  return ReadVec<double>();
}
std::vector<int64_t> SnapshotReader::ReadI64Vec() { return ReadVec<int64_t>(); }
std::vector<int32_t> SnapshotReader::ReadI32Vec() { return ReadVec<int32_t>(); }

}  // namespace fdm
