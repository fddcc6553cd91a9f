#ifndef FDM_SERVICE_SESSION_MANAGER_H_
#define FDM_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/solution.h"
#include "core/solve_cache.h"
#include "service/durable_session.h"
#include "util/periodic_thread.h"
#include "util/status.h"

namespace fdm {

/// Configuration of one `SessionManager`. No field sets a width: every
/// session's ingest and cold-SOLVE fan-outs and the manager's `SnapshotAll`
/// sweep run at the one process-wide width on the one shared pool
/// (core/parallelism.h). That pool takes concurrent jobs, so cold SOLVEs on
/// different sessions run side by side instead of queueing behind each
/// other's fork-join, and no number of sessions adds threads beyond it.
struct SessionManagerOptions {
  /// Root directory; each session lives in `<root_dir>/<name>/`.
  std::string root_dir;
  /// Sessions kept live in memory; beyond this the least-recently-used
  /// idle session is snapshotted and spilled to disk (it reloads lazily on
  /// the next touch). 0 = unlimited.
  size_t max_resident = 0;
  /// Per-session durability knobs (auto-snapshot cadence, WAL batching),
  /// applied to every session the manager builds or recovers.
  DurableSessionOptions session;
  /// Period of the background snapshot thread, which persists every
  /// resident session with unsnapshotted records. 0 = no background
  /// thread.
  int background_snapshot_ms = 0;
};

/// Serving-side façade: many named, concurrently accessible durable
/// sessions, each a `StreamSink` built from a spec string.
///
/// Concurrency model: a manager-level mutex guards only the name→entry map
/// and LRU bookkeeping; every session has its own *reader–writer* lock
/// (`std::shared_mutex`), so ingest into different sessions proceeds in
/// parallel (and each sink can additionally parallelize `ObserveBatch`
/// internally over its own rungs/shards), while queries (`Solve`, `Stats`)
/// take it shared, and only a reload takes it exclusive: they run
/// concurrently with each other and are answered from the session's
/// `SolveCache` whenever the sink's state version has not moved — STATS
/// never waits for a SOLVE, cached or cold, of the same session.
/// Manager-wide sweeps (`SnapshotAll`, destructor flush) fan the sessions
/// out over the process-wide width (core/parallelism.h).
///
/// Each entry owns its `SolveCache` and re-attaches it whenever the
/// session is (re)loaded, so memoized solutions survive LRU spills and
/// crash-recovery drills: state versions are chunking-invariant under WAL
/// replay, so a cache entry that still matches the recovered sink's
/// version is still bit-exact.
///
/// Lifecycle: `CreateSession` builds a fresh sink + WAL; a session touched
/// after a spill (or after a restart — `Create` scans `root_dir`) is
/// recovered transparently from its snapshot + WAL tail. The destructor
/// stops the background thread and snapshots every resident session, so a
/// clean shutdown restarts with empty WAL tails.
class SessionManager {
 public:
  static Result<std::unique_ptr<SessionManager>> Create(
      SessionManagerOptions options);

  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a new named session from a sink spec (see
  /// `service/sink_spec.h`). Names are path components: `[A-Za-z0-9._-]+`.
  Status CreateSession(const std::string& name, const std::string& spec);

  /// The one ingest call (see `DurableSession::Ingest`), under the
  /// session's exclusive lock: rejects the whole call when a point's
  /// dimension or group does not fit the spec, and reports how many points
  /// were applied vs rejected as exact duplicates by a `dedup=on` session.
  /// `as_batch=false` with one point takes the sink's per-element path
  /// (OBSERVE); anything else is one batch (OBSERVEB). The points'
  /// coordinate spans only need to live for the call.
  Result<IngestOutcome> Ingest(const std::string& name,
                               std::span<const StreamPoint> batch,
                               bool as_batch);

  Result<Solution> Solve(const std::string& name);

  /// Explicit durability points.
  Status Snapshot(const std::string& name);
  Status SnapshotAll();

  /// Drops the in-memory state of a session WITHOUT snapshotting — the
  /// next touch recovers from disk (snapshot + WAL tail). This is the
  /// kill-point used by crash-recovery tests and the serve CLI's RESTORE.
  Status DropResident(const std::string& name);

  struct SessionStats {
    std::string name;
    std::string spec;
    bool resident = false;
    int64_t observed = 0;
    size_t stored = 0;
    int64_t snapshot_seq = 0;
    /// Monotone sink state version (see `StreamSink::StateVersion`).
    uint64_t state_version = 0;
    /// Query-path counters: solve-cache hits/misses plus latency
    /// percentiles of this session's cached serves and cold computes
    /// (from the per-cache histograms — real in both metric configs).
    /// 0 until at least one sample exists in the respective series.
    uint64_t solve_hits = 0;
    uint64_t solve_misses = 0;
    double solve_p50_cached_ms = 0.0;
    double solve_p99_cached_ms = 0.0;
    double solve_p50_cold_ms = 0.0;
    double solve_p99_cold_ms = 0.0;
    /// Cumulative ingest/durability counters, footer-persisted so they
    /// survive LRU spill and crash recovery (see `SessionIngestCounters`).
    int64_t kept = 0;
    int64_t ingest_batches = 0;
    int64_t snapshots_taken = 0;
    double snapshot_write_ms_total = 0.0;
    int64_t restores = 0;
    int64_t replayed_records = 0;
    /// Exactly-once ingest surface (zeros when the spec says dedup=off):
    /// exact duplicates rejected before the WAL, the filter's resident
    /// bytes, and its capacity doublings.
    bool dedup = false;
    int64_t duplicates_rejected = 0;
    uint64_t filter_bytes = 0;
    uint64_t filter_grows = 0;
    /// Distance-kernel dispatch target serving this process ("scalar" |
    /// "avx2" | "avx512") — process-wide, surfaced per STATS reply so bench
    /// recordings against the server are self-describing.
    std::string kernel;
  };
  Result<SessionStats> Stats(const std::string& name);

  /// `Solve(name)` when it is a cache hit on a resident session: one name
  /// lookup, one shared lock, the memoized solution (counted as a hit,
  /// LRU stamp bumped). nullopt means "not served here": an unknown or
  /// spilled session, or a miss. It never loads or computes, so an event
  /// loop may call it and hand the rest to `Solve` on another thread.
  std::optional<Result<Solution>> SolveIfCached(const std::string& name);

  /// All known sessions (resident and spilled), sorted by name.
  std::vector<std::string> SessionNames() const;

  size_t ResidentCount() const;

 private:
  struct Entry {
    /// Reader–writer session lock: ingest/snapshot/spill take it
    /// exclusive, queries (Solve/Stats) shared.
    std::shared_mutex mu;
    std::unique_ptr<DurableSession> session;  // null = spilled to disk
    /// Mirrors `session != nullptr`, updated at every transition while
    /// `mu` is held. Scans that only hold the MAP mutex (LRU victim
    /// selection, SnapshotAll collection) read this flag — reading
    /// `session` itself there would race with a concurrent load/spill.
    std::atomic<bool> resident{false};
    /// The session's solve cache. Owned by the entry (not the session) so
    /// memoized solutions survive spill/reload; re-attached on every load.
    std::shared_ptr<SolveCache> solve_cache = std::make_shared<SolveCache>();
    uint64_t last_used = 0;
  };

  explicit SessionManager(SessionManagerOptions options);

  std::string DirFor(const std::string& name) const {
    return options_.root_dir + "/" + name;
  }

  /// The entry for `name`, or null; `touch` bumps its LRU stamp. The one
  /// name lookup: it holds the map mutex only for the find.
  std::shared_ptr<Entry> FindEntry(const std::string& name, bool touch);

  /// Installs `session` in `entry` (null spills or drops it), attaching
  /// the entry's solve cache and keeping `resident`, `resident_count_` and
  /// the `fdm_sessions_resident` gauge in step. The caller holds
  /// `entry.mu` exclusively or has not published the entry yet.
  void SetSession(Entry& entry, std::unique_ptr<DurableSession> session);

  using Exclusive = std::unique_lock<std::shared_mutex>;
  using Shared = std::shared_lock<std::shared_mutex>;

  /// Runs `fn(session)` holding the entry lock as `Lock` (a `Shared` holder
  /// gets a const session). Residency is checked under that lock; a
  /// spilled session is reloaded under `Exclusive`, released before the
  /// retry. `*was_resident` reports whether the first look found it.
  template <typename Lock, typename Fn>
  auto WithSession(const std::string& name, Fn&& fn,
                   bool* was_resident = nullptr)
      -> decltype(fn(std::declval<DurableSession&>()));

  /// Spills LRU sessions until the resident count is within bounds.
  void EnforceResidencyLimit();

  SessionManagerOptions options_;
  mutable std::mutex mu_;  // guards entries_ + tick_
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  uint64_t tick_ = 0;
  /// Live-session count, maintained at every load/spill transition so the
  /// per-operation residency check is O(1); the O(sessions) LRU scan only
  /// runs once the cap is actually exceeded.
  std::atomic<size_t> resident_count_{0};

  PeriodicThread snapshot_sweep_;  // every background_snapshot_ms
};

}  // namespace fdm

#endif  // FDM_SERVICE_SESSION_MANAGER_H_
