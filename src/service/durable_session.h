#ifndef FDM_SERVICE_DURABLE_SESSION_H_
#define FDM_SERVICE_DURABLE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/solution.h"
#include "core/solve_cache.h"
#include "core/stream_sink.h"
#include "service/dedup_filter.h"
#include "service/sink_spec.h"
#include "service/wal.h"
#include "util/status.h"

namespace fdm {

class SnapshotReader;
class SnapshotWriter;

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

/// One session's in-memory state, the same on a primary (`DurableSession`)
/// and a follower (`ReplicaSession`): the spec, the sink and, iff the spec
/// says `dedup=on`, the duplicate guard with its rejection count. It is the
/// only code that builds this state from a spec and the only reader and
/// writer of the session snapshot payload,
///
///   "fdm.session" | spec | seq | sink state | stats footer | dedup footer
///
/// so crash recovery and follower bootstrap restore through one path. The
/// footers are lenient: a payload may end after the sink state or after
/// the stats footer, and a malformed footer costs what it holds, never the
/// restore.
class SessionState {
 public:
  /// Parses `spec`, once. The result holds no sink or guard yet: only
  /// `Fresh` and `Restore` may be called on it.
  static Result<SessionState> Parse(std::string spec);

  /// This spec's state with a new sink and, iff `dedup=on`, an empty guard.
  Result<SessionState> Fresh() const;

  /// This spec's state restored from the snapshot payload in `reader`,
  /// taken at stream position `seq`. Fails on a wrong tag, spec or position
  /// or a sink state that does not restore. `counters`, when non-null,
  /// receives the stats footer. The spec decides the guard: a `dedup=on`
  /// state takes the dedup footer's guard and count, or an empty guard
  /// without a well-formed footer; a `dedup=off` state reads no dedup
  /// footer.
  Result<SessionState> Restore(SnapshotReader& reader, int64_t seq,
                               SessionIngestCounters* counters) const;

  /// The payload head: tag, spec, stream position, sink state.
  Status WriteHead(SnapshotWriter& writer) const;
  /// The footers after the head: stats, then dedup iff there is a guard.
  void WriteFooters(SnapshotWriter& writer,
                    const SessionIngestCounters& counters) const;

  /// The applier crash-recovery replay and follower tails apply records
  /// through; the guard relearns every applied id.
  WalBatchApplier Applier() {
    return WalBatchApplier(*sink_, rule(), guard());
  }

  const std::string& spec() const { return spec_; }
  /// The points the sink admits (`SinkSpec::Rule`).
  PointRule rule() const { return parsed_.Rule(); }
  StreamSink& sink() { return *sink_; }
  const StreamSink& sink() const { return *sink_; }
  /// The duplicate guard; null when the spec says `dedup=off`.
  DedupFilter* guard() { return guard_ ? &*guard_ : nullptr; }
  const DedupFilter* guard() const { return guard_ ? &*guard_ : nullptr; }
  /// Exact duplicates the guard rejected, cumulative.
  int64_t duplicates_rejected() const { return duplicates_rejected_; }
  void CountRejected(int64_t duplicates) {
    duplicates_rejected_ += duplicates;
  }

 private:
  SessionState(std::string spec, SinkSpec parsed)
      : spec_(std::move(spec)), parsed_(std::move(parsed)) {}
  /// This spec's state over `sink`, with an empty guard iff `dedup=on`:
  /// the one place a guard starts empty.
  SessionState WithSink(std::unique_ptr<StreamSink> sink) const;

  std::string spec_;
  SinkSpec parsed_;
  std::unique_ptr<StreamSink> sink_;  // null only in a `Parse` result
  std::optional<DedupFilter> guard_;
  int64_t duplicates_rejected_ = 0;
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
    const StreamSink& sink = state_.sink();
    return solve_cache_->GetOrCompute(
        sink.StateVersion(), [&sink] { return sink.Solve(); }, dir_);
  }

  /// `Solve()` when it is a cache hit (counted as one); else nullopt,
  /// with nothing computed.
  std::optional<Result<Solution>> SolveIfCached() const {
    return solve_cache_->Lookup(StateVersion(), dir_);
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
  uint64_t StateVersion() const { return state_.sink().StateVersion(); }

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
  const std::string& spec() const { return state_.spec(); }
  /// Cumulative counters, footer-persisted (see `SessionIngestCounters`).
  const SessionIngestCounters& IngestCounters() const { return counters_; }
  /// True iff the spec enables the duplicate guard (`dedup=on`).
  bool DedupEnabled() const { return state_.guard() != nullptr; }
  /// Exact duplicates rejected before the WAL, cumulative. Persisted in
  /// the snapshot's dedup footer — exact across LRU spill (which snapshots
  /// first) and snapshot-covered recovery; rejections since the last
  /// snapshot are deliberately not WAL-logged (they ARE the records kept
  /// out of the log), so a hard crash forgets only that recent delta.
  int64_t DuplicatesRejected() const {
    return state_.duplicates_rejected();
  }
  /// The duplicate guard (null when `dedup=off`).
  const DedupFilter* dedup_filter() const { return state_.guard(); }
  int64_t ObservedElements() const {
    return state_.sink().ObservedElements();
  }
  size_t StoredElements() const { return state_.sink().StoredElements(); }
  /// Stream position of the newest on-disk snapshot (0 = none).
  int64_t SnapshotSeq() const { return snapshot_seq_; }
  /// Records observed since the newest snapshot.
  int64_t UnsnapshottedRecords() const {
    return ObservedElements() - snapshot_seq_;
  }
  StreamSink& sink() { return state_.sink(); }
  const StreamSink& sink() const { return state_.sink(); }

 private:
  /// Clamps `keep_snapshots` to at least 1; the caller supplies the WAL.
  DurableSession(std::string dir, SessionState state,
                 DurableSessionOptions options);

  Status MaybeAutoSnapshot();
  /// Deletes snapshots beyond `keep_snapshots`; returns the seq of the
  /// oldest snapshot still on disk (`snapshot_seq_` if none).
  Result<int64_t> PruneSnapshots();
  std::string SnapshotPath(int64_t seq) const;
  std::string dir_;
  DurableSessionOptions options_;
  SessionState state_;
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t probe_sample_ = 0;  // 1-in-64 sampling of the probe histogram
  std::shared_ptr<SolveCache> solve_cache_;  // never null
  int64_t snapshot_seq_ = 0;
  SessionIngestCounters counters_;
  Status broken_;  // latched WAL-append failure; session needs a reopen
};

}  // namespace fdm

#endif  // FDM_SERVICE_DURABLE_SESSION_H_
