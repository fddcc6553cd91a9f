#ifndef FDM_SERVICE_DURABLE_SESSION_H_
#define FDM_SERVICE_DURABLE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/solution.h"
#include "core/solve_cache.h"
#include "core/stream_sink.h"
#include "service/dedup_filter.h"
#include "service/wal.h"
#include "util/status.h"

namespace fdm {

class SnapshotReader;
struct SinkSpec;

/// Restores the sink embedded in one session snapshot (the payload
/// `DurableSession::TakeSnapshot` writes: tag, spec, stream position, sink
/// state). Fails — instead of restoring silently — when the tag is wrong,
/// the stored spec differs from `expected_spec`, or the embedded stream
/// position disagrees with the header/`expected_seq` (pass -1 to accept
/// any position). Shared by `DurableSession::Open` and the replica
/// bootstrap path, which restores from shipped bytes rather than a file.
Result<std::unique_ptr<StreamSink>> RestoreSessionSnapshot(
    SnapshotReader& reader, std::string_view expected_spec,
    int64_t expected_seq);

/// Counters persisted in the session snapshot's stats footer; declared
/// below (`ReadSessionFooters` needs the type).
struct SessionIngestCounters;

/// Reads the lenient footers that follow the sink state in a session
/// snapshot: the stats footer (into `counters` when non-null) and, after
/// it, the dedup footer — returning the restored duplicate-guard filter,
/// or null when the snapshot predates dedup, carries no filter, or has a
/// malformed tail. `duplicates_rejected` (when non-null) receives the
/// persisted rejection count alongside a non-null filter. Never fails:
/// like the stats footer, missing or foreign trailing bytes must cost
/// statistics at worst, never the restore. Shared by `DurableSession::Open`
/// and the replica bootstrap (which restores from shipped bytes).
std::unique_ptr<DedupFilter> ReadSessionFooters(
    SnapshotReader& reader, SessionIngestCounters* counters,
    int64_t* duplicates_rejected);

/// The replication advertisement a primary publishes at each durability
/// point (see `DurableSession::PublishReplicationState`): the stream
/// position and the sink's state version at that position. Followers use
/// the pair to detect staleness (`version` comparison is free) and to
/// cross-check determinism: a follower that has applied exactly `seq`
/// records must be at exactly `state_version`.
struct ReplicationAdvert {
  int64_t seq = 0;
  uint64_t state_version = 0;
};

/// Reads the advert of the session at `dir`; IoError when absent or torn
/// (the file is written atomically, so torn means foul play, but callers
/// treat both as "no advert available").
Result<ReplicationAdvert> ReadReplicationAdvert(const std::string& dir);

/// Cumulative ingest/durability counters of one session. Unlike the
/// sink-derived numbers (`ObservedElements` lives in sink state and
/// survives snapshots on its own), these exist only in the session layer —
/// so `TakeSnapshot` persists them in a stats footer after the sink state
/// and `Open` reloads them, adding back the WAL tail's replayed mutations.
/// The result: counts survive LRU spill and crash recovery exactly.
/// Snapshots that predate the footer load as zeros.
struct SessionIngestCounters {
  /// Sink mutations total (summed `ObserveBatch` returns on every ingest
  /// path and in replay; an element admitted by several candidate rungs
  /// counts once per rung).
  int64_t kept_total = 0;
  /// `Ingest` calls applied through the sink's `ObserveBatch` (not
  /// elements).
  int64_t ingest_batches = 0;
  int64_t snapshots_taken = 0;
  /// Wall time spent writing snapshots, milliseconds. The persisted value
  /// excludes the end of the write of the snapshot carrying it (the footer
  /// is written before the file is finished); the in-memory value
  /// includes it.
  double snapshot_write_ms_total = 0.0;
  /// Times this session was restored by `Open`.
  int64_t restores = 0;
  /// WAL records replayed across all restores.
  int64_t replayed_records = 0;
};

/// What one `Ingest` call did: how many points were applied (WAL-logged
/// and offered to the sink) and how many were rejected as exact
/// duplicates by the session's dedup filter (never both for one point).
/// Sessions without `dedup=on` report every point as accepted.
struct IngestOutcome {
  int64_t accepted = 0;
  int64_t duplicates = 0;
};

/// Durability knobs of one session.
struct DurableSessionOptions {
  WalOptions wal;
  /// Take a snapshot automatically after this many new records (0 = only
  /// explicit/background snapshots).
  size_t snapshot_every = 0;
  /// Snapshots retained on disk (older ones are pruned after each new one;
  /// at least 1).
  size_t keep_snapshots = 2;
};

/// One durable streaming session: a sink plus its write-ahead log and
/// snapshot chain, under one directory:
///
///   <dir>/SPEC               the sink spec (text, one line)
///   <dir>/wal/wal-*.log      the write-ahead log segments
///   <dir>/snap/snap-<seq>.snap   checksummed snapshots (seq = observed)
///
/// Write path (WAL discipline): every observation is appended to the log
/// *before* it reaches the sink, so after a crash the union of the newest
/// loadable snapshot and the log tail always covers the applied stream.
/// fsyncs are batched (`WalOptions::sync_every`), so up to one batch of
/// acknowledged records can be lost on power failure — but never torn:
/// recovery replays the intact prefix of the tail and the restored sink is
/// bit-identical to an uninterrupted run over that prefix.
///
/// `TakeSnapshot` writes snap/<observed>.snap atomically, then prunes WAL
/// segments the snapshot made redundant and snapshots beyond
/// `keep_snapshots`.
///
/// Thread-safety: mutating operations (`Ingest`, `TakeSnapshot`, `Sync`)
/// require exclusive access; the const query
/// surface (`Solve`, the counters, `SolveCacheStats`) may run concurrently
/// with itself. `SessionManager` enforces exactly this with a per-session
/// reader–writer lock, so queries never block each other and cached SOLVEs
/// are served while other sessions ingest.
class DurableSession {
 public:
  /// Creates a fresh session directory. Fails if `dir` already contains a
  /// session (use `Open`).
  static Result<DurableSession> Create(std::string dir, std::string spec,
                                       DurableSessionOptions options = {});

  /// Opens an existing session: restores the newest loadable snapshot
  /// (falling back to older snapshots, then to a fresh sink, on checksum
  /// failure) and replays the WAL tail after it through `ObserveBatch`.
  static Result<DurableSession> Open(std::string dir,
                                     DurableSessionOptions options = {});

  /// True iff `dir` holds a session (its SPEC file exists).
  static bool Exists(const std::string& dir);

  /// The one way points enter the session, in this order:
  ///  1. Admission: a point whose dimension differs from the spec's, or
  ///     whose group lies outside `SinkSpec::GroupCount()`, fails the whole
  ///     call with InvalidArgument. A malformed point must never be
  ///     persisted, or every recovery would replay it into a sink that
  ///     aborts on it.
  ///  2. Dedup (`dedup=on`): a point whose id the session already accepted
  ///     is an idempotent no-op (no WAL record, no state-version bump, no
  ///     admission scan), counted in `IngestOutcome::duplicates`. The check
  ///     is exact; negative ids carry no identity and always pass.
  ///  3. A call left with no point to apply returns here; nothing moves.
  ///  4. One WAL append of the remaining points.
  ///  5. Apply through one `ObserveBatch` (a one-point `as_batch=false`
  ///     call, OBSERVE, is not counted in `ingest_batches`); then a due
  ///     auto-snapshot.
  ///
  /// A failed WAL append POISONS the session (every later call returns
  /// the latched error): the log may then hold a record the sink never
  /// applied, so continuing — or snapshotting — would break the
  /// `snapshot seq + WAL tail == stream` invariant recovery relies on.
  /// The cure is to drop the object and `Open` again: the WAL is the
  /// source of truth, and replay reconciles the sink to it.
  Result<IngestOutcome> Ingest(std::span<const StreamPoint> batch,
                               bool as_batch);

  /// Current solution, served through the session's `SolveCache`: the
  /// expensive post-processing runs only when the sink's state version
  /// moved since the last query; otherwise the memoized solution is
  /// returned verbatim. Safe to call concurrently with other readers
  /// (`Stats`, other `Solve`s) — the manager's reader–writer session lock
  /// excludes ingest while a query reads the sink.
  Result<Solution> Solve() const {
    const StreamSink& sink = *sink_;
    return solve_cache_->GetOrCompute(
        sink.StateVersion(), [&sink] { return sink.Solve(); }, dir_);
  }

  /// `Solve()` when it is a cache hit (counted as one); else nullopt,
  /// with nothing computed.
  std::optional<Result<Solution>> SolveIfCached() const {
    return solve_cache_->Lookup(sink_->StateVersion(), dir_);
  }

  /// Replaces the session's solve cache (the manager hands every session
  /// the cache owned by its registry entry, so memoized solutions survive
  /// spill/reload and crash-recovery cycles: the restored sink's state
  /// version is chunking-invariant, so a still-matching cache entry is
  /// still correct and the first query after recovery is a cache hit).
  void AttachSolveCache(std::shared_ptr<SolveCache> cache) {
    if (cache != nullptr) solve_cache_ = std::move(cache);
  }

  /// The sink's monotone state version (see `StreamSink::StateVersion`).
  uint64_t StateVersion() const { return sink_->StateVersion(); }

  /// Query-path counters of this session's cache.
  SolveCache::Stats SolveCacheStats() const {
    return solve_cache_->GetStats();
  }

  /// Fsyncs the WAL and writes a snapshot at the current stream position.
  Status TakeSnapshot();

  /// Fsyncs the WAL (durability barrier without a snapshot) and publishes
  /// the replication advertisement for this position.
  Status Sync();

  /// Atomically (re)writes `<dir>/REPL` with the current stream position
  /// and sink state version — the primary's advertised replication state.
  /// Called by `Sync`/`TakeSnapshot`; exposed for callers that want a
  /// fresher advert between durability points.
  Status PublishReplicationState();

  const std::string& dir() const { return dir_; }
  const std::string& spec() const { return spec_; }
  /// Cumulative counters, footer-persisted (see `SessionIngestCounters`).
  const SessionIngestCounters& IngestCounters() const { return counters_; }
  /// True iff the spec enables the duplicate guard (`dedup=on`).
  bool DedupEnabled() const { return dedup_ != nullptr; }
  /// Exact duplicates rejected before the WAL, cumulative. Persisted in
  /// the snapshot's dedup footer — exact across LRU spill (which snapshots
  /// first) and snapshot-covered recovery; rejections since the last
  /// snapshot are deliberately not WAL-logged (they ARE the records kept
  /// out of the log), so a hard crash forgets only that recent delta.
  int64_t DuplicatesRejected() const { return duplicates_rejected_; }
  /// The duplicate guard (null when `dedup=off`).
  const DedupFilter* dedup_filter() const { return dedup_.get(); }
  int64_t ObservedElements() const { return sink_->ObservedElements(); }
  size_t StoredElements() const { return sink_->StoredElements(); }
  /// Stream position of the newest on-disk snapshot (0 = none).
  int64_t SnapshotSeq() const { return snapshot_seq_; }
  /// Records observed since the newest snapshot.
  int64_t UnsnapshottedRecords() const {
    return sink_->ObservedElements() - snapshot_seq_;
  }
  StreamSink& sink() { return *sink_; }
  const StreamSink& sink() const { return *sink_; }

 private:
  /// The one place `Create` and `Open` derive what the session admits
  /// from its parsed spec: the point dimension, the group count, an empty
  /// duplicate guard when `dedup=on`, and `keep_snapshots` clamped to at
  /// least 1. The caller supplies the sink and the WAL.
  DurableSession(std::string dir, std::string spec, const SinkSpec& parsed,
                 DurableSessionOptions options);

  Status MaybeAutoSnapshot();
  /// Deletes snapshots beyond `keep_snapshots`; returns the seq of the
  /// oldest snapshot still on disk (`snapshot_seq_` if none).
  Result<int64_t> PruneSnapshots();
  std::string SnapshotPath(int64_t seq) const;
  std::string dir_;
  std::string spec_;
  DurableSessionOptions options_;
  std::unique_ptr<StreamSink> sink_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<DedupFilter> dedup_;  // null unless spec says dedup=on
  int64_t duplicates_rejected_ = 0;
  uint64_t probe_sample_ = 0;  // 1-in-64 sampling of the probe histogram
  std::shared_ptr<SolveCache> solve_cache_;  // never null
  PointRule rule_;  // from the spec; every ingested point must fit it
  int64_t snapshot_seq_ = 0;
  SessionIngestCounters counters_;
  Status broken_;  // latched WAL-append failure; session needs a reopen
};

}  // namespace fdm

#endif  // FDM_SERVICE_DURABLE_SESSION_H_
