#ifndef FDM_REPLICA_REPLICA_MANAGER_H_
#define FDM_REPLICA_REPLICA_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/solution.h"
#include "net/net_client.h"
#include "replica/replica_session.h"
#include "util/periodic_thread.h"
#include "util/status.h"

namespace fdm {

struct ReplicaManagerOptions {
  /// Where the primary is. Two forms:
  ///  - a filesystem path: the primary's session-manager root (each
  ///    session in `<primary_root>/<name>/`), reachable through the
  ///    filesystem;
  ///  - `tcp://host:port`: a primary's TCP front end (net/tcp_server.h);
  ///    sessions are discovered with the LIST verb and tailed through
  ///    `SocketReplicationSource`.
  /// The follower mirrors every session it finds either way.
  std::string primary_root;
  /// Background catch-up period; 0 = poll only on demand (`Poll`,
  /// `PollAll`, the `REPLICA` serve verb).
  int poll_ms = 0;
  /// Per-follower catch-up knobs. `max_records_per_poll` matters here: it
  /// bounds how long one background poll holds a session's exclusive lock,
  /// so queries interleave with catch-up.
  ReplicaOptions replica;
};

/// The follower-side counterpart of `SessionManager`: many named read-only
/// `ReplicaSession`s over one primary root, each behind its own
/// reader–writer lock (queries shared, catch-up exclusive) so SOLVE/STATS
/// keep flowing while tails apply. Sessions are discovered lazily — at
/// creation and once per `PollAll`/`SessionNames` — so sessions created on
/// the primary after the follower starts appear without a restart. A
/// `tcp://` primary is asked with `LIST` over one kept connection.
///
/// There is no write surface at all: the follower applies only what the
/// primary's log says, which is what makes its answers bit-identical to
/// the primary's at matched state versions.
class ReplicaManager {
 public:
  static Result<std::unique_ptr<ReplicaManager>> Create(
      ReplicaManagerOptions options);

  ~ReplicaManager();

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  /// A follower's answer: the solution at its applied position plus the
  /// staleness facts a caller needs to never mistake it for the primary's
  /// latest — the solution is always *correct for `applied_seq`*; `stale`
  /// says whether the primary is known to be ahead.
  struct ReplicaSolve {
    Solution solution;
    uint64_t state_version = 0;
    int64_t applied_seq = 0;
    int64_t lag = 0;
    bool stale = false;
    explicit ReplicaSolve(Solution s) : solution(std::move(s)) {}
  };
  Result<ReplicaSolve> Solve(const std::string& name);

  /// Last-known replication stats (no I/O beyond a possible first
  /// bootstrap of the named session).
  Result<ReplicaSession::ReplicaStats> Stats(const std::string& name);

  /// Refreshes the manifest (no records applied) and returns stats — the
  /// cheap staleness probe behind the `LAG` verb.
  Result<ReplicaSession::ReplicaStats> Lag(const std::string& name);

  /// Catches the named session up now; returns records applied.
  Result<int64_t> Poll(const std::string& name);

  /// Rescans the primary root and polls every known session once. Errors
  /// are latched per-session and returned combined (first error wins) but
  /// do not stop the sweep.
  Status PollAll();

  /// All sessions currently visible under the primary root.
  std::vector<std::string> SessionNames();

  /// `Solve(name)` when it is a follower-cache hit, under one shared lock;
  /// nullopt means "not served here": an unknown session, one not
  /// bootstrapped yet, or a miss. It never bootstraps, polls or computes,
  /// so an event loop may call it and hand the rest to `Solve` elsewhere.
  std::optional<Result<ReplicaSolve>> SolveIfCached(const std::string& name);

 private:
  struct Entry {
    /// Queries (Solve/Stats) shared; bootstrap/poll exclusive.
    std::shared_mutex mu;
    std::unique_ptr<ReplicaSession> replica;  // null until first touch
  };

  /// `primary_host` is empty unless `primary_root` is `tcp://host:port`.
  ReplicaManager(ReplicaManagerOptions options, std::string primary_host,
                 int primary_port);

  /// Rescans the primary root for session directories, registering new
  /// names (existing entries are untouched).
  void DiscoverSessions();

  /// The names registered so far, without rescanning.
  std::vector<std::string> KnownNames() const;

  /// The registered entry for `name`, or null; no discovery.
  std::shared_ptr<Entry> FindEntry(const std::string& name) const;

  /// Entry for `name`, bootstrapping the follower on first touch.
  Result<std::shared_ptr<Entry>> Follower(const std::string& name);

  ReplicaManagerOptions options_;
  /// Set iff `primary_root` is `tcp://host:port`.
  const std::string primary_host_;
  const int primary_port_;
  /// The connection `DiscoverSessions` sends LIST on (tcp:// primaries
  /// only), kept across sweeps instead of dialed per sweep.
  std::mutex discovery_mu_;  // guards discovery_
  net::ReconnectingClient discovery_;
  mutable std::mutex mu_;  // guards entries_
  std::map<std::string, std::shared_ptr<Entry>> entries_;

  PeriodicThread poller_;  // PollAll every poll_ms
};

}  // namespace fdm

#endif  // FDM_REPLICA_REPLICA_MANAGER_H_
