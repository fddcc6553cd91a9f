#include "replica/socket_source.h"

#include <functional>
#include <utility>
#include <vector>

#include "util/stringutil.h"

namespace fdm {
namespace {

/// Splits one `<a>:<b>:<c>` list element.
bool ParseTriple(std::string_view item, int64_t* a, uint64_t* b,
                 uint64_t* c) {
  const size_t first = item.find(':');
  if (first == std::string_view::npos) return false;
  const size_t second = item.find(':', first + 1);
  if (second == std::string_view::npos) return false;
  return ParseInt64(item.substr(0, first), a) &&
         ParseUint64(item.substr(first + 1, second - first - 1), b) &&
         ParseUint64(item.substr(second + 1), c);
}

/// Iterates `x,y,z` (or the empty-list marker `-`).
bool ForEachListItem(std::string_view list,
                     const std::function<bool(std::string_view)>& fn) {
  if (list == "-") return true;
  while (!list.empty()) {
    const size_t comma = list.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? list : list.substr(0, comma);
    if (!fn(item)) return false;
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace

SocketReplicationSource::SocketReplicationSource(std::string host, int port,
                                                 std::string session)
    : session_(std::move(session)), client_(std::move(host), port) {}

void SocketReplicationSource::InvalidateCaches() { client_.Close(); }

Result<ReplicaManifest> SocketReplicationSource::GetManifest() {
  auto reply = client_.Call("RMANIFEST " + session_);
  if (!reply.ok()) return reply.status();
  std::string_view line = *reply;
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  if (line.substr(0, 4) == "ERR ") {
    return Status::IoError("primary: " + std::string(line.substr(4)));
  }
  if (line.substr(0, 3) != "OK ") {
    return Status::IoError("malformed manifest reply");
  }
  line.remove_prefix(3);
  // `spec=` is last and runs to end of line (specs contain spaces).
  const size_t spec_at = line.find("spec=");
  if (spec_at == std::string_view::npos) {
    return Status::IoError("manifest reply missing spec");
  }
  ReplicaManifest manifest;
  manifest.spec = std::string(line.substr(spec_at + 5));
  std::string_view head = line.substr(0, spec_at);
  bool ok = true;
  while (ok && !head.empty()) {
    const size_t space = head.find(' ');
    const std::string_view token =
        space == std::string_view::npos ? head : head.substr(0, space);
    head.remove_prefix(space == std::string_view::npos ? head.size()
                                                       : space + 1);
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      ok = false;
      break;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "primary_seq") {
      ok = ParseInt64(value, &manifest.primary_seq);
    } else if (key == "version") {
      ok = ParseUint64(value, &manifest.primary_version);
    } else if (key == "advert_seq") {
      ok = ParseInt64(value, &manifest.advert_seq);
    } else if (key == "snapshots") {
      ok = ForEachListItem(value, [&manifest](std::string_view item) {
        ReplicaSnapshotInfo info;
        if (!ParseTriple(item, &info.seq, &info.bytes, &info.checksum)) {
          return false;
        }
        manifest.snapshots.push_back(info);
        return true;
      });
    } else if (key == "segments") {
      ok = ForEachListItem(value, [&manifest](std::string_view item) {
        WalSegmentInfo info;
        if (!ParseTriple(item, &info.first_seq, &info.bytes,
                         &info.checksum)) {
          return false;
        }
        manifest.segments.push_back(info);
        return true;
      });
    }
    // Unknown keys are skipped: a newer primary may advertise more.
  }
  if (!ok) return Status::IoError("malformed manifest reply");
  return manifest;
}

Result<std::string> SocketReplicationSource::ParseBytesReply(
    std::string reply) {
  const size_t nl = reply.find('\n');
  if (nl == std::string::npos) return Status::IoError("malformed fetch reply");
  const std::string_view header(reply.data(), nl);
  if (header.substr(0, 4) == "ERR ") {
    return Status::IoError("primary: " + std::string(header.substr(4)));
  }
  constexpr std::string_view kPrefix = "OK bytes=";
  int64_t bytes = -1;
  if (header.substr(0, kPrefix.size()) != kPrefix ||
      !ParseInt64(header.substr(kPrefix.size()), &bytes) || bytes < 0 ||
      reply.size() < nl + 1 + static_cast<size_t>(bytes)) {
    return Status::IoError("malformed fetch reply");
  }
  // The bytes stay where they arrived: the header line is erased in
  // front of them and the closing newline cut behind.
  reply.erase(0, nl + 1);
  reply.resize(static_cast<size_t>(bytes));
  return reply;
}

Result<std::string> SocketReplicationSource::FetchSnapshot(int64_t seq) {
  auto reply =
      client_.Call("RFETCHSNAP " + session_ + " " + std::to_string(seq));
  if (!reply.ok()) return reply.status();
  return ParseBytesReply(std::move(reply.value()));
}

Result<std::string> SocketReplicationSource::FetchWalSegment(
    int64_t first_seq, uint64_t offset) {
  std::string request =
      "RFETCHWAL " + session_ + " " + std::to_string(first_seq);
  if (offset != 0) request += " " + std::to_string(offset);
  auto reply = client_.Call(request);
  if (!reply.ok()) return reply.status();
  return ParseBytesReply(std::move(reply.value()));
}

}  // namespace fdm
