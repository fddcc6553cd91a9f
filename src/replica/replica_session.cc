#include "replica/replica_session.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/binary_io.h"

namespace fdm {

namespace {

// Manifest refreshes one `Bootstrap`/`Poll` tolerates while the primary
// prunes/rotates underneath it before reporting an error.
constexpr int kMaxSyncAttempts = 5;

// Replication-plane metrics, mirrored from the per-session counters at
// their increment sites so one METRICS scrape covers every follower in
// the process.
obs::Histogram& PollHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_replica_poll_ns", "latency of follower polls (SyncOnce)",
      /*slow_threshold_ns=*/1'000'000'000);
  return h;
}
obs::Histogram& LagHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_replica_lag", "records behind the primary after each poll");
  return h;
}
obs::Counter& AppliedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_apply_records_total", "WAL records applied by followers");
  return c;
}
obs::Counter& FetchBytesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_fetch_bytes_total",
      "bytes fetched from replication sources (segments + snapshots)");
  return c;
}
obs::Counter& DivergenceCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_divergence_rebuilds_total",
      "follower rebuilds after an advert/version divergence");
  return c;
}
obs::Counter& ResyncCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_resyncs_total",
      "snapshot re-syncs after a pruned WAL gap");
  return c;
}
obs::Counter& StaleManifestCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_stale_manifest_retries_total",
      "polls retried after a stale manifest / bad ship");
  return c;
}
obs::Counter& SegmentsFetchedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_segments_fetched_total", "WAL segments fetched");
  return c;
}
obs::Counter& SnapshotsLoadedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_snapshots_loaded_total",
      "snapshots restored by followers");
  return c;
}
obs::Counter& TornTailCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_torn_tails_total",
      "polls that stopped at the primary's in-flight record");
  return c;
}
obs::Counter& BootstrapCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_bootstraps_total", "follower bootstraps");
  return c;
}

}  // namespace

void ReplicaSession::NoteManifest(const ReplicaManifest& manifest) {
  last_primary_seq_ = std::max(manifest.primary_seq, applied_seq_);
  last_primary_version_ = manifest.primary_version;
  last_advert_seq_ = manifest.advert_seq;
}

void ReplicaSession::NoteFetched(size_t bytes) {
  fetched_bytes_ += bytes;
  FetchBytesCounter().Add(bytes);
}

Result<ReplicaSession> ReplicaSession::Bootstrap(
    std::shared_ptr<ReplicationSource> source, ReplicaOptions options) {
  BootstrapCounter().Inc();
  auto manifest = source->GetManifest();
  if (!manifest.ok()) return manifest.status();
  // The primary's spec decides the sink, which records a tail may apply
  // and whether the follower mirrors the duplicate guard.
  auto parsed = SessionState::Parse(manifest->spec);
  if (!parsed.ok()) return parsed.status();
  ReplicaSession session(std::move(source), options, std::move(*parsed));
  session.NoteManifest(*manifest);
  if (Status s = session.RestoreOrFresh(*manifest); !s.ok()) return s;
  if (auto applied = session.SyncOnce(); !applied.ok()) {
    return applied.status();
  }
  return session;
}

Result<int64_t> ReplicaSession::Poll() {
  // The timer keeps a view of its context, and a re-sync or a divergence
  // rebuild replaces the state `spec()` lives in: it views a copy.
  const std::string context = spec();
  obs::ScopedTimer poll_timer(PollHist(), context, StateVersion());
  auto applied = SyncOnce();
  if (applied.ok()) {
    AppliedCounter().Add(static_cast<uint64_t>(*applied));
    LagHist().Record(static_cast<uint64_t>(
        std::max<int64_t>(0, last_primary_seq_ - applied_seq_)));
  }
  return applied;
}

Status ReplicaSession::RefreshLag() {
  auto manifest = source_->GetManifest();
  if (!manifest.ok()) return manifest.status();
  if (manifest->spec != spec()) {
    return Status::IoError("primary spec changed under the follower");
  }
  NoteManifest(*manifest);
  return Status::Ok();
}

Result<int64_t> ReplicaSession::SyncOnce() {
  int64_t total = 0;
  for (int attempt = 0; attempt < kMaxSyncAttempts; ++attempt) {
    auto manifest = source_->GetManifest();
    if (!manifest.ok()) return manifest.status();
    if (manifest->spec != spec()) {
      return Status::IoError("primary spec changed under the follower");
    }
    NoteManifest(*manifest);

    auto outcome = ApplyFrom(*manifest, &total);
    if (!outcome.ok()) return outcome.status();
    switch (*outcome) {
      case ApplyOutcome::kCaughtUp:
      case ApplyOutcome::kBudgetExhausted:
      case ApplyOutcome::kTornActiveTail:
        // The determinism cross-check: at the advertised position the
        // versions must agree. A mismatch means the applied history
        // diverged from the durable log (the primary lost an unfsynced
        // tail and re-wrote those seqs) — rebuild from scratch rather
        // than keep serving divergent answers as fresh.
        if (DivergedFromAdvert(*manifest)) {
          ++divergence_rebuilds_;
          DivergenceCounter().Inc();
          // A rewritten log can reuse segment names and sizes, so any
          // transport cache may be serving the pre-rewrite bytes — and the
          // fetch offset points into the old log.
          source_->InvalidateCaches();
          DropFetchOffset();
          // Version numbering restarts with the rebuilt sink, so a cached
          // solution from the diverged history could collide with a new
          // version — drop it.
          solve_cache_->Invalidate();
          // The sink and the guard mirror the discarded history; both are
          // replaced, and the re-applied tail does the rest.
          if (Status s = RestoreOrFresh(*manifest); !s.ok()) return s;
          continue;  // re-apply the tail over the rebuilt state
        }
        // Progress (or a clean stop at the primary's in-flight tail);
        // anything left is the next poll's job.
        return total;
      case ApplyOutcome::kStaleManifest:
        // A listed file vanished, shrank, or failed its checksum between
        // manifest and fetch — the primary pruned/rotated mid-poll, or a
        // transport cache is stale, or a ranged fetch did not resume at
        // the next record. Drop caches and the offset, refetch, retry.
        ++stale_manifest_retries_;
        StaleManifestCounter().Inc();
        source_->InvalidateCaches();
        DropFetchOffset();
        continue;
      case ApplyOutcome::kNeedSnapshot: {
        // The tail right after our position was pruned: only a snapshot
        // strictly ahead of us can bridge the gap.
        ++resyncs_;
        ResyncCounter().Inc();
        BootstrapFromSnapshot(*manifest, applied_seq_);
        // Even when no newer snapshot is listed yet, retry with a fresh
        // manifest — the primary prunes only after writing one, so it
        // appears shortly; attempts bound the wait.
        continue;
      }
    }
  }
  return Status::IoError(
      "replica did not converge after " +
      std::to_string(kMaxSyncAttempts) +
      " manifest refreshes (primary pruning faster than the follower "
      "can sync)");
}

Status ReplicaSession::RestoreOrFresh(const ReplicaManifest& manifest) {
  if (BootstrapFromSnapshot(manifest, /*min_seq=*/0)) return Status::Ok();
  // No loadable snapshot: start fresh and replay the whole log (valid only
  // while the log still reaches back to seq 1 — if it does not, the sync
  // loop detects the gap and re-syncs from whatever snapshot the next
  // manifest lists).
  auto fresh = state_.Fresh();
  if (!fresh.ok()) return fresh.status();
  state_ = std::move(fresh.value());
  applied_seq_ = 0;
  return Status::Ok();
}

bool ReplicaSession::BootstrapFromSnapshot(
    const ReplicaManifest& manifest, int64_t min_seq) {
  // Newest first; stop at min_seq — a re-sync must never move the served
  // state backward (versions and lag stay monotone for readers).
  for (auto it = manifest.snapshots.rbegin(); it != manifest.snapshots.rend();
       ++it) {
    if (it->seq <= min_seq) break;
    auto bytes = source_->FetchSnapshot(it->seq);
    if (!bytes.ok()) continue;  // pruned since the manifest; try older
    NoteFetched(bytes->size());
    if (it->checksum != 0 &&
        (bytes->size() != it->bytes ||
         Fnv1a64(bytes->data(), bytes->size()) != it->checksum)) {
      continue;  // torn ship; the framed checksum below would catch it too
    }
    auto reader = SnapshotReader::FromBytes(std::move(bytes.value()));
    if (!reader.ok()) continue;
    // The snapshot's dedup footer carries the guard at exactly this
    // position; the WAL tail applied after it re-teaches the rest.
    auto restored = state_.Restore(*reader, it->seq, /*counters=*/nullptr);
    if (!restored.ok()) continue;
    state_ = std::move(restored.value());
    applied_seq_ = it->seq;
    DropFetchOffset();  // the new position is not where the offset was
    ++snapshots_loaded_;
    SnapshotsLoadedCounter().Inc();
    return true;
  }
  return false;
}

Result<ReplicaSession::ApplyOutcome> ReplicaSession::ApplyFrom(
    const ReplicaManifest& manifest, int64_t* applied) {
  const size_t budget = options_.max_records_per_poll == 0
                            ? std::numeric_limits<size_t>::max()
                            : options_.max_records_per_poll;

  // Tail application reuses the WAL's batched applier (the exact path
  // crash-recovery replay takes), so a follower's apply is bit-identical
  // to recovery by construction. `applied_seq_` advances only when a
  // batch has actually reached the sink.
  WalBatchApplier applier = state_.Applier();
  bool budget_hit = false;

  auto flush = [&]() {
    const int64_t flushed = static_cast<int64_t>(applier.Flush());
    applied_seq_ += flushed;
    *applied += flushed;
  };

  for (size_t s = 0; s < manifest.segments.size(); ++s) {
    const WalSegmentInfo& seg = manifest.segments[s];
    const bool is_last = s + 1 == manifest.segments.size();
    // A whole segment is skippable when the next one starts at or before
    // the position we need next.
    if (!is_last && manifest.segments[s + 1].first_seq <= applied_seq_ + 1) {
      continue;
    }
    if (seg.first_seq > applied_seq_ + 1) {
      return ApplyOutcome::kNeedSnapshot;
    }
    // In the segment holding the last applied record, ask only for bytes
    // not fetched yet: past that record and past whatever a budget-bound
    // poll left unapplied. Any other segment is fetched whole.
    const uint64_t offset =
        seg.first_seq == fetch_first_seq_ ? fetch_offset_ : 0;
    // An idle poll: the manifest lists the newest segment ending exactly
    // at the next fetch offset, with nothing fetched left unapplied and no
    // record past the applied position, so a fetch could only come back
    // empty.
    if (is_last && offset != 0 && unapplied_.empty() && seg.bytes == offset &&
        manifest.primary_seq <= applied_seq_) {
      break;
    }
    auto fetched = source_->FetchWalSegment(
        seg.first_seq, offset == 0 ? 0 : offset + unapplied_.size());
    if (!fetched.ok()) return ApplyOutcome::kStaleManifest;
    ++segments_fetched_;
    SegmentsFetchedCounter().Inc();
    NoteFetched(fetched->size());
    // The segment's bytes from `offset` on: the fetch itself, unless a
    // budget-bound poll left fetched bytes unapplied ahead of it.
    std::string bytes = unapplied_.empty() || offset == 0
                            ? std::move(fetched.value())
                            : std::move(unapplied_) + *fetched;
    unapplied_.clear();
    if (seg.checksum != 0) {
      // A sealed segment is immutable: a whole fetch must match the listed
      // size and checksum; a ranged one must end exactly at the listed
      // size (its records carry their own checksums).
      const bool intact =
          offset == 0 ? bytes.size() == seg.bytes &&
                            Fnv1a64(bytes.data(), bytes.size()) == seg.checksum
                      : offset + bytes.size() == seg.bytes;
      if (!intact) return ApplyOutcome::kStaleManifest;
    }
    if (offset == 0 && bytes.empty()) continue;  // zero-length crash artifact

    WalSegmentCursor cursor(bytes, offset);
    WalRecordView record;
    const int64_t start_seq = applied_seq_;
    // Seq of the record that ends at `cursor.valid_bytes()` (for a whole
    // segment with no record yet, the one before its first).
    int64_t last_read = offset != 0 ? start_seq : seg.first_seq - 1;
    while (cursor.Next(record)) {
      const int64_t expected =
          applied_seq_ + static_cast<int64_t>(applier.pending()) + 1;
      // Records within a segment are dense by construction, so a gap means
      // the shipped bytes are bad; and a ranged fetch must resume exactly
      // at the next record, or its offset no longer points where it did.
      // Either way: refetch (bounded by the sync loop).
      if (record.seq > expected || (record.seq < expected && offset != 0)) {
        return ApplyOutcome::kStaleManifest;
      }
      last_read = record.seq;
      if (record.seq < expected) continue;  // below the snapshot: skip
      if (Status added = applier.Add(record); !added.ok()) return added;
      if (static_cast<size_t>(*applied) + applier.pending() >= budget) {
        budget_hit = true;
        break;
      }
      if (applier.ShouldFlush()) flush();
    }
    if (!cursor.status().ok()) {
      // Checksum-valid but malformed payload in shipped bytes: treat as a
      // bad ship and refetch; persistent corruption exhausts the attempts.
      return ApplyOutcome::kStaleManifest;
    }
    if (!budget_hit && cursor.torn_tail() && !is_last) {
      return ApplyOutcome::kStaleManifest;  // sealed segments never tear
    }
    if (offset != 0 && last_read == start_seq &&
        manifest.primary_seq > start_seq) {
      // The manifest saw the next record, yet nothing intact sits at the
      // offset: the segment was rewritten under the follower.
      return ApplyOutcome::kStaleManifest;
    }
    flush();
    // The next fetch may start at `valid_bytes()` only when every record
    // before it is applied, i.e. the last one read is the applied position.
    if (last_read == applied_seq_) {
      fetch_first_seq_ = seg.first_seq;
      fetch_offset_ = cursor.valid_bytes();
    } else {
      DropFetchOffset();
    }
    if (budget_hit) {
      // Keep what was fetched but not applied, so the next poll pays only
      // for bytes the primary appended since.
      unapplied_ = bytes.substr(cursor.valid_bytes() - offset);
      return ApplyOutcome::kBudgetExhausted;
    }
    if (cursor.torn_tail()) {
      // The active segment's in-flight record (or a mid-write ship of it):
      // the intact prefix is applied; stop cleanly and let the next poll
      // fetch from there.
      ++torn_tails_seen_;
      TornTailCounter().Inc();
      return ApplyOutcome::kTornActiveTail;
    }
  }
  return ApplyOutcome::kCaughtUp;
}

ReplicaSession::ReplicaStats ReplicaSession::Stats() const {
  ReplicaStats stats;
  stats.applied_seq = applied_seq_;
  stats.primary_seq = last_primary_seq_;
  stats.primary_version = last_primary_version_;
  stats.advert_seq = last_advert_seq_;
  stats.lag = lag();
  stats.stale = stats.lag > 0;
  stats.state_version = StateVersion();
  stats.resyncs = resyncs_;
  stats.divergence_rebuilds = divergence_rebuilds_;
  stats.stale_manifest_retries = stale_manifest_retries_;
  stats.segments_fetched = segments_fetched_;
  stats.snapshots_loaded = snapshots_loaded_;
  stats.torn_tails_seen = torn_tails_seen_;
  stats.fetched_bytes = fetched_bytes_;
  stats.duplicates_rejected = state_.duplicates_rejected();
  if (const DedupFilter* guard = state_.guard(); guard != nullptr) {
    stats.dedup = true;
    stats.filter_bytes = guard->MemoryBytes();
    stats.filter_grows = guard->Grows();
  }
  stats.solve = solve_cache_->GetStats();
  return stats;
}

}  // namespace fdm
