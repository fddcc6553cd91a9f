#ifndef FDM_SERVICE_SESSION_LAYOUT_H_
#define FDM_SERVICE_SESSION_LAYOUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fdm {

/// The on-disk layout of one durable session directory, shared by the
/// writer side (`DurableSession`) and the read-only replication side
/// (`DirReplicationSource`), so a follower can interpret a primary's
/// directory without constructing a session over it:
///
///   <dir>/SPEC               the sink spec (text, one line)
///   <dir>/wal/wal-*.log      write-ahead log segments
///   <dir>/snap/snap-<seq>.snap   checksummed snapshots (seq = observed)
///   <dir>/REPL               replication advertisement (stream position +
///                            sink state version at the last durability
///                            point; written atomically, absent until the
///                            first Sync/TakeSnapshot)

/// Whether `name` may name a session: 1–128 characters from
/// `[A-Za-z0-9._-]`, the first not `.` (no hidden directories, `.` or
/// `..`). A session name is a path component under the root directory, so
/// this one rule keeps the session verbs, the replication verbs and
/// follower discovery from walking out of it.
bool IsValidSessionName(std::string_view name);

std::string SessionSpecPath(const std::string& dir);
std::string SessionWalDir(const std::string& dir);
std::string SessionSnapDir(const std::string& dir);
std::string SessionReplAdvertPath(const std::string& dir);

/// `snap-<seq>.snap` with the zero-padded name that makes lexicographic
/// and numeric order agree.
std::string SessionSnapshotFileName(int64_t seq);

/// Snapshot files in `snap_dir`, as (seq, path), sorted ascending by seq.
/// Unparsable names are ignored; a missing directory yields an empty list.
std::vector<std::pair<int64_t, std::string>> ListSessionSnapshots(
    const std::string& snap_dir);

}  // namespace fdm

#endif  // FDM_SERVICE_SESSION_LAYOUT_H_
