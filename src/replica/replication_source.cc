#include "replica/replication_source.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "service/durable_session.h"
#include "service/session_layout.h"
#include "util/binary_io.h"

namespace fdm {

DirReplicationSource::DirReplicationSource(std::string session_dir)
    : dir_(std::move(session_dir)) {}

Result<ReplicaManifest> DirReplicationSource::GetManifest() {
  ReplicaManifest manifest;
  {
    std::ifstream in(SessionSpecPath(dir_));
    if (!in || !std::getline(in, manifest.spec)) {
      return Status::IoError("no session at " + dir_ + " (missing SPEC)");
    }
  }

  // Advert (optional): the primary's (seq, version) at its last durability
  // point. The durable position can be ahead of a stale advert, so the
  // authoritative primary_seq comes from scanning the newest segment below.
  if (auto advert = ReadReplicationAdvert(dir_); advert.ok()) {
    manifest.advert_seq = advert->seq;
    manifest.primary_version = advert->state_version;
    manifest.primary_seq = advert->seq;
  }

  auto snapshots = ListSessionSnapshots(SessionSnapDir(dir_));
  manifest.snapshots.reserve(snapshots.size());
  for (const auto& [seq, path] : snapshots) {
    ReplicaSnapshotInfo info;
    info.seq = seq;
    // Snapshots are immutable once renamed into place: hash each once and
    // serve later manifests from the cache (size re-checked, so a
    // replaced/truncated file re-hashes).
    std::error_code size_ec;
    const uint64_t size = std::filesystem::file_size(path, size_ec);
    if (size_ec) continue;  // pruned between listing and stat
    const auto cached = snapshot_checksums_.find(seq);
    if (cached != snapshot_checksums_.end() && cached->second.first == size) {
      info.bytes = size;
      info.checksum = cached->second.second;
    } else {
      auto sum = ChecksumFile(path);
      if (!sum.ok()) continue;  // pruned between stat and read
      info.bytes = sum->bytes;
      info.checksum = sum->checksum;
      snapshot_checksums_[seq] = {info.bytes, info.checksum};
    }
    manifest.snapshots.push_back(info);
  }
  // Pruned snapshots never come back under the same seq; drop their cache
  // entries so the map tracks the (small) retained set.
  std::erase_if(snapshot_checksums_, [&](const auto& entry) {
    return snapshots.empty() || entry.first < snapshots.front().first;
  });

  auto segments = WriteAheadLog::ListSegments(SessionWalDir(dir_));
  if (!segments.ok()) return segments.status();
  manifest.segments = std::move(segments.value());

  // Sealed segments (all but the newest) are immutable once rotated away
  // from, so hash each once; the newest keeps checksum 0 (it grows).
  for (size_t i = 0; i + 1 < manifest.segments.size(); ++i) {
    WalSegmentInfo& seg = manifest.segments[i];
    const auto cached = sealed_checksums_.find(seg.first_seq);
    if (cached != sealed_checksums_.end() &&
        cached->second.first == seg.bytes) {
      seg.checksum = cached->second.second;
      continue;
    }
    auto sum = ChecksumFile(seg.path);
    if (!sum.ok()) continue;  // pruned mid-manifest; fetch will fail too
    seg.bytes = sum->bytes;
    seg.checksum = sum->checksum;
    sealed_checksums_[seg.first_seq] = {seg.bytes, seg.checksum};
  }

  // The durable stream position: the last intact record of the newest
  // segment (records past a torn tail do not count — they are exactly what
  // a follower cannot fetch). Segments are append-only, so the scan
  // resumes where the previous manifest's stopped: a growing segment costs
  // a read of its new bytes, and an idle one only directory stats.
  if (!manifest.segments.empty()) {
    const WalSegmentInfo& newest = manifest.segments.back();
    if (newest.first_seq != scanned_first_seq_ ||
        newest.bytes < scanned_bytes_) {
      scanned_first_seq_ = newest.first_seq;
      scanned_bytes_ = 0;
      scanned_valid_bytes_ = 0;
      scanned_last_seq_ = newest.first_seq - 1;
    }
    if (newest.bytes != scanned_bytes_) {
      auto file = ReadOnlyFile::Open(newest.path);
      if (file.ok() && scanned_valid_bytes_ <= file->size()) {
        const uint64_t size = file->size();
        WalSegmentCursor cursor(std::move(file.value()), scanned_valid_bytes_);
        WalRecordView record;
        while (cursor.Next(record)) scanned_last_seq_ = record.seq;
        scanned_bytes_ = size;
        scanned_valid_bytes_ = cursor.valid_bytes();
      }
    }
    manifest.primary_seq = std::max(manifest.primary_seq, scanned_last_seq_);
  }
  return manifest;
}

void DirReplicationSource::InvalidateCaches() {
  sealed_checksums_.clear();
  snapshot_checksums_.clear();
  scanned_first_seq_ = 0;
  scanned_bytes_ = 0;
  scanned_valid_bytes_ = 0;
  scanned_last_seq_ = 0;
}

namespace {

Result<std::string> ReadRange(const Result<FileRange>& range) {
  if (!range.ok()) return range.status();
  std::string bytes;
  if (Status s = AppendFileRange(*range, &bytes); !s.ok()) return s;
  return bytes;
}

}  // namespace

Result<std::string> DirReplicationSource::FetchSnapshot(int64_t seq) {
  return ReadRange(OpenSnapshot(seq));
}

Result<std::string> DirReplicationSource::FetchWalSegment(int64_t first_seq,
                                                          uint64_t offset) {
  return ReadRange(OpenWalSegment(first_seq, offset));
}

Result<FileRange> DirReplicationSource::OpenSnapshot(int64_t seq) const {
  return OpenFileRange(
      SessionSnapDir(dir_) + "/" + SessionSnapshotFileName(seq), 0);
}

Result<FileRange> DirReplicationSource::OpenWalSegment(
    int64_t first_seq, uint64_t offset) const {
  return OpenFileRange(
      SessionWalDir(dir_) + "/" + WalSegmentFileName(first_seq), offset);
}

}  // namespace fdm
