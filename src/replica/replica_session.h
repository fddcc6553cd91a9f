#ifndef FDM_REPLICA_REPLICA_SESSION_H_
#define FDM_REPLICA_REPLICA_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/solution.h"
#include "core/solve_cache.h"
#include "core/stream_sink.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"
#include "util/status.h"

namespace fdm {

/// Catch-up knobs of one follower. A WAL tail is applied in
/// `WalBatchApplier::kBatchRecords` chunks, as crash recovery applies it,
/// and one `Bootstrap`/`Poll` tolerates a fixed number of manifest
/// refreshes (`kMaxSyncAttempts` in replica_session.cc) while the primary
/// prunes/rotates underneath it.
struct ReplicaOptions {
  /// Records one `Poll` applies at most before returning (0 = unlimited).
  /// A bounded poll keeps the exclusive-lock hold time of a serving
  /// follower short: queries interleave with catch-up instead of stalling
  /// behind one giant apply.
  size_t max_records_per_poll = 0;
};

/// A read-only follower of one durable session: bootstraps from the
/// primary's newest loadable snapshot (which embeds the stream position
/// and, transitively, the state version), then tails WAL segments shipped
/// through a `ReplicationSource` and applies them via `ObserveBatch` — the
/// exact replay path crash recovery uses, so a caught-up follower is
/// bit-identical to the primary at the matched state version (the
/// `StateVersion` contract is chunking-invariant, so batched tailing
/// reproduces the primary's per-element version exactly).
///
/// Tailing pays for new records only: the follower keeps the offset just
/// past its last applied record and asks for the bytes after it (a ranged
/// `FetchWalSegment`). Whole-segment fetches are checked against the
/// manifest's whole-file checksum when the segment is sealed. A ranged
/// fetch is checked by its records' own checksums, by opening with record
/// `applied_seq() + 1`, and, when the segment is sealed, by ending exactly
/// at the size the manifest lists. Every stale-manifest, divergence and
/// re-sync path drops the offset, so the next fetch starts from byte 0.
///
/// Staleness is detected for free: the manifest advertises the primary's
/// durable position (and, at durability points, its state version), so
/// `Stats().lag` = advertised position − applied position, and a follower
/// by construction never serves a solution whose version *exceeds* the
/// primary's — it has only ever applied a prefix of the primary's stream.
///
/// Pruning races are ordinary control flow: when the tail below the
/// follower's position disappears (the primary snapshotted and truncated),
/// `Poll` re-syncs from a newer snapshot; when a listed file is gone by
/// fetch time, the manifest is refreshed and the attempt repeated (a
/// bounded number of times).
///
/// Not thread-safe; `ReplicaManager` wraps each follower in a
/// reader–writer lock (queries shared, catch-up exclusive).
class ReplicaSession {
 public:
  /// Connects to `source`, restores the newest loadable snapshot (falling
  /// back to older ones, then to a fresh sink), and applies the available
  /// WAL tail (`max_records_per_poll` bounds that first apply too).
  static Result<ReplicaSession> Bootstrap(
      std::shared_ptr<ReplicationSource> source, ReplicaOptions options = {});

  /// Fetches a fresh manifest and applies every record after the current
  /// position, re-syncing from a newer snapshot when the tail was pruned.
  /// Returns the number of records applied (0 = already caught up).
  Result<int64_t> Poll();

  /// Fetches a fresh manifest to update the advertised primary position —
  /// no records are applied, so a cheap staleness probe for serving paths
  /// that must flag (not heal) lag.
  Status RefreshLag();

  /// Current solution at the follower's applied position, served through a
  /// `SolveCache` keyed by the sink's state version — repeated queries
  /// between polls are cache hits. The solution reflects `applied_seq()`,
  /// which may trail the primary; check `Stats().stale`.
  Result<Solution> Solve() const {
    const StreamSink& sink = state_.sink();
    return solve_cache_->GetOrCompute(sink.StateVersion(),
                                      [&sink] { return sink.Solve(); });
  }

  uint64_t StateVersion() const { return state_.sink().StateVersion(); }

  /// `Solve()` when it is a cache hit (counted as one); else nullopt,
  /// with nothing computed.
  std::optional<Result<Solution>> SolveIfCached() const {
    return solve_cache_->Lookup(StateVersion());
  }

  /// Exact membership of `id` at the follower's applied position — the
  /// cheap pre-check the divergence story wants: a client (or operator)
  /// can ask "did this point make it in?" without replaying anything.
  /// Only meaningful when the primary's spec says `dedup=on` (the filter
  /// is restored from snapshot footers and maintained by tail application
  /// in lockstep with the sink); always false otherwise.
  bool KnownId(int64_t id) const {
    const DedupFilter* guard = state_.guard();
    return guard != nullptr && guard->Contains(id);
  }

  struct ReplicaStats {
    /// Records applied to the follower's sink (its stream position).
    int64_t applied_seq = 0;
    /// Primary durable position as of the last manifest fetch.
    int64_t primary_seq = 0;
    /// Primary state version advertised at `advert_seq` (0 = none yet).
    uint64_t primary_version = 0;
    int64_t advert_seq = 0;
    /// `primary_seq - applied_seq` (never negative; the follower only
    /// applies records the manifest said exist).
    int64_t lag = 0;
    /// True iff the follower knows records it has not applied exist — a
    /// SOLVE answered now is correct for `applied_seq` but behind the
    /// primary.
    bool stale = false;
    /// Follower sink state version.
    uint64_t state_version = 0;
    /// Snapshot re-syncs forced by pruning (bootstrap loads included).
    uint64_t resyncs = 0;
    /// Ground-up rebuilds forced by the advert determinism check: the
    /// follower sat exactly at an advertised position with a *different*
    /// state version — its applied history disagrees with the primary's
    /// durable log (e.g. the primary lost an unfsynced tail to a power
    /// failure and re-wrote those sequence numbers with different points).
    /// Rather than serve divergent answers with `stale=false`, the
    /// follower discards its state and re-syncs from scratch.
    uint64_t divergence_rebuilds = 0;
    /// Manifest refreshes forced by files vanishing between manifest and
    /// fetch (checksum mismatches and torn sealed segments included).
    uint64_t stale_manifest_retries = 0;
    uint64_t segments_fetched = 0;
    uint64_t snapshots_loaded = 0;
    /// Bytes received from the source (WAL ranges and snapshots) — what
    /// the follower pays for the records it applied. Kept here as well as
    /// on the metrics plane so it holds in FDM_NO_METRICS builds.
    uint64_t fetched_bytes = 0;
    /// Torn tails observed on the active segment (healed by later polls).
    uint64_t torn_tails_seen = 0;
    /// Exactly-once ingest surface, mirrored from the primary's footers
    /// and maintained through tail application (zeros when dedup=off).
    bool dedup = false;
    int64_t duplicates_rejected = 0;
    uint64_t filter_bytes = 0;
    uint64_t filter_grows = 0;
    SolveCache::Stats solve;
  };
  ReplicaStats Stats() const;

  const std::string& spec() const { return state_.spec(); }
  int64_t applied_seq() const { return applied_seq_; }
  /// Records the primary held past `applied_seq()` as of the last manifest
  /// (`Stats().lag`; never negative).
  int64_t lag() const {
    return std::max<int64_t>(0, last_primary_seq_ - applied_seq_);
  }
  const StreamSink& sink() const { return state_.sink(); }

 private:
  /// Outcome of one manifest-application pass (`ApplyFrom`).
  enum class ApplyOutcome {
    kCaughtUp,        // applied everything the manifest lists
    kBudgetExhausted, // max_records_per_poll hit; more remains
    kTornActiveTail,  // stopped at the active segment's torn tail
    kStaleManifest,   // a listed file was gone/short by fetch time
    kNeedSnapshot,    // the tail after applied_seq_ was pruned away
  };

  ReplicaSession(std::shared_ptr<ReplicationSource> source,
                 ReplicaOptions options, SessionState state)
      : source_(std::move(source)),
        options_(options),
        state_(std::move(state)),
        solve_cache_(std::make_shared<SolveCache>()) {}

  /// Applies records after `applied_seq_` from the segments `manifest`
  /// lists; `*applied` accumulates the count.
  Result<ApplyOutcome> ApplyFrom(const ReplicaManifest& manifest,
                                 int64_t* applied);

  /// Restores the newest loadable snapshot strictly after `min_seq` and
  /// swaps its state in. False = none loadable; the state stays as it is.
  bool BootstrapFromSnapshot(const ReplicaManifest& manifest, int64_t min_seq);

  /// The state a bootstrap or a divergence rebuild starts from: the newest
  /// loadable snapshot's, else a fresh one at position 0.
  Status RestoreOrFresh(const ReplicaManifest& manifest);

  /// The manifest-refresh / apply / re-sync loop shared by `Bootstrap` and
  /// `Poll`; applies until caught up, budget-bound, or out of attempts.
  Result<int64_t> SyncOnce();

  /// True iff the follower sits exactly at the advertised position but at
  /// a different state version — proof its applied history diverged from
  /// the primary's durable log (see `ReplicaStats::divergence_rebuilds`).
  bool DivergedFromAdvert(const ReplicaManifest& manifest) const {
    return manifest.advert_seq != 0 && manifest.primary_version != 0 &&
           applied_seq_ == manifest.advert_seq &&
           StateVersion() != manifest.primary_version;
  }

  void NoteManifest(const ReplicaManifest& manifest);
  void NoteFetched(size_t bytes);

  /// The next fetch of every segment starts at offset 0. Every path that
  /// moves `applied_seq_` other than tail application, or that doubts the
  /// source's bytes, calls this.
  void DropFetchOffset() {
    fetch_first_seq_ = 0;
    fetch_offset_ = 0;
    unapplied_ = std::string();
  }

  std::shared_ptr<ReplicationSource> source_;
  ReplicaOptions options_;
  /// The primary's spec, sink and duplicate guard at `applied_seq_` (only
  /// parsed until `Bootstrap` restores or starts it): the guard is
  /// restored whole from snapshot dedup footers, then re-taught by every
  /// applied tail record, so it tracks the sink's position.
  SessionState state_;
  std::shared_ptr<SolveCache> solve_cache_;  // never null
  int64_t applied_seq_ = 0;
  /// Ranged-fetch position: the segment holding record `applied_seq_` and
  /// the offset just past that record, so a poll fetches only new records.
  int64_t fetch_first_seq_ = 0;
  uint64_t fetch_offset_ = 0;
  /// That segment's bytes from `fetch_offset_` on that a budget-bound poll
  /// fetched but did not apply; the next poll starts from them.
  std::string unapplied_;

  // Last-manifest view + counters behind Stats().
  int64_t last_primary_seq_ = 0;
  uint64_t last_primary_version_ = 0;
  int64_t last_advert_seq_ = 0;
  uint64_t resyncs_ = 0;
  uint64_t divergence_rebuilds_ = 0;
  uint64_t stale_manifest_retries_ = 0;
  uint64_t segments_fetched_ = 0;
  uint64_t snapshots_loaded_ = 0;
  uint64_t torn_tails_seen_ = 0;
  uint64_t fetched_bytes_ = 0;
};

}  // namespace fdm

#endif  // FDM_REPLICA_REPLICA_SESSION_H_
