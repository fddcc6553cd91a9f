#include "service/durable_session.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sink_snapshot.h"
#include "obs/metrics.h"
#include "service/session_layout.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"
#include "util/timer.h"

namespace fdm {

namespace {

constexpr std::string_view kSessionTag = "fdm.session";
constexpr std::string_view kReplAdvertTag = "fdm.repl";
constexpr std::string_view kSessionStatsTag = "fdm.session.stats";
constexpr std::string_view kSessionDedupTag = "fdm.session.dedup";

obs::Counter& ObservedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_ingest_points_observed_total",
      "stream points offered to durable sessions");
  return c;
}
obs::Counter& KeptCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_ingest_points_kept_total",
      "sink mutations (a point kept by several rungs counts per rung)");
  return c;
}
obs::Histogram& BatchSizeHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_ingest_batch_points", "points per ObserveBatch call");
  return h;
}
obs::Histogram& SnapshotWriteHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_snapshot_write_ns", "latency of session snapshot writes",
      /*slow_threshold_ns=*/1'000'000'000);
  return h;
}
obs::Counter& SnapshotBytesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_snapshot_bytes_total", "session snapshot payload bytes written");
  return c;
}
obs::Histogram& RestoreHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_session_restore_ns",
      "latency of session Opens (snapshot restore + WAL tail replay)",
      /*slow_threshold_ns=*/5'000'000'000);
  return h;
}
obs::Counter& RestoresCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_session_restores_total", "sessions restored by Open");
  return c;
}
obs::Counter& DedupCheckedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_dedup_checked_total", "point ids probed against dedup filters");
  return c;
}
obs::Counter& DedupRejectedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_dedup_rejected_total",
      "exact duplicates rejected before the WAL");
  return c;
}
obs::Counter& DedupFilterGrowsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_dedup_filter_grows_total",
      "dedup id-set doublings (id bitmap or sparse-id table)");
  return c;
}
obs::Histogram& DedupProbeHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_dedup_probe_ns",
      "latency of one dedup filter probe+insert (1/64 sampled)");
  return h;
}

// Lenient by design: a snapshot written before the footer existed simply
// has no trailing bytes (counters stay zero), and any malformed tail —
// impossible from corruption, since the file checksum covers the whole
// payload, but possible from a foreign writer — must never fail the
// restore over lost statistics. The reader is not used again afterwards
// unless this returns true (the dedup footer follows only a well-formed
// stats footer, so a failed parse here ends footer reading entirely).
bool ReadStatsFooter(SnapshotReader& reader, SessionIngestCounters& out) {
  if (reader.Remaining() == 0) return false;
  SessionIngestCounters parsed;
  const std::string tag = reader.ReadString();
  parsed.kept_total = reader.ReadI64();
  parsed.ingest_batches = reader.ReadI64();
  parsed.snapshots_taken = reader.ReadI64();
  parsed.snapshot_write_ms_total = reader.ReadDouble();
  parsed.restores = reader.ReadI64();
  parsed.replayed_records = reader.ReadI64();
  if (!reader.ok() || tag != kSessionStatsTag) return false;
  out = parsed;
  return true;
}

}  // namespace

Result<SessionState> SessionState::Parse(std::string spec) {
  auto parsed = SinkSpec::Parse(spec);
  if (!parsed.ok()) return parsed.status();
  return SessionState(std::move(spec), std::move(parsed.value()));
}

SessionState SessionState::WithSink(std::unique_ptr<StreamSink> sink) const {
  SessionState state(spec_, parsed_);
  state.sink_ = std::move(sink);
  if (parsed_.dedup) state.guard_.emplace();
  return state;
}

Result<SessionState> SessionState::Fresh() const {
  auto sink = parsed_.MakeSink();
  if (!sink.ok()) return sink.status();
  return WithSink(std::move(sink.value()));
}

Result<SessionState> SessionState::Restore(
    SnapshotReader& reader, int64_t seq,
    SessionIngestCounters* counters) const {
  const std::string tag = reader.ReadString();
  const std::string stored_spec = reader.ReadString();
  const int64_t stored_seq = reader.ReadI64();
  if (!reader.ok()) return reader.status();
  if (tag != kSessionTag) {
    return Status::IoError("not a session snapshot (tag '" + tag + "')");
  }
  // A snapshot written under a different spec (edited SPEC file, foreign
  // file copied in) must not restore silently — the caller's configuration
  // and the restored sink's would disagree.
  if (stored_spec != spec_) {
    return Status::IoError("session snapshot spec mismatch");
  }
  if (stored_seq != seq) {
    return Status::IoError("session snapshot seq mismatch: header says " +
                           std::to_string(stored_seq) + ", expected " +
                           std::to_string(seq));
  }
  auto sink = RestoreSink(reader);
  if (!sink.ok()) return sink.status();
  if ((*sink)->ObservedElements() != seq) {
    return Status::IoError("session snapshot observed-count mismatch");
  }
  SessionState state = WithSink(std::move(sink.value()));
  SessionIngestCounters stats;
  if (!ReadStatsFooter(reader, stats)) return state;
  if (counters != nullptr) *counters = stats;
  // The spec is the authority on the guard: a dedup=on state keeps the
  // empty one made above unless a well-formed dedup footer replaces it.
  if (!parsed_.dedup || reader.Remaining() == 0) return state;
  const std::string dedup_tag = reader.ReadString();
  const int64_t rejected = reader.ReadI64();
  if (!reader.ok() || dedup_tag != kSessionDedupTag) return state;
  auto guard = DedupFilter::Deserialize(reader);
  if (!guard.ok()) return state;
  state.guard_ = std::move(guard.value());
  state.duplicates_rejected_ = rejected;
  return state;
}

Status SessionState::WriteHead(SnapshotWriter& writer) const {
  writer.WriteString(kSessionTag);
  writer.WriteString(spec_);
  writer.WriteI64(sink_->ObservedElements());
  return sink_->Snapshot(writer);
}

void SessionState::WriteFooters(SnapshotWriter& writer,
                                const SessionIngestCounters& counters) const {
  writer.WriteString(kSessionStatsTag);
  writer.WriteI64(counters.kept_total);
  writer.WriteI64(counters.ingest_batches);
  writer.WriteI64(counters.snapshots_taken);
  writer.WriteDouble(counters.snapshot_write_ms_total);
  writer.WriteI64(counters.restores);
  writer.WriteI64(counters.replayed_records);
  if (guard_) {
    writer.WriteString(kSessionDedupTag);
    writer.WriteI64(duplicates_rejected_);
    guard_->Serialize(writer);
  }
}

Result<ReplicationAdvert> ReadReplicationAdvert(const std::string& dir) {
  auto reader = SnapshotReader::FromFile(SessionReplAdvertPath(dir));
  if (!reader.ok()) return reader.status();
  const std::string tag = reader->ReadString();
  ReplicationAdvert advert;
  advert.seq = reader->ReadI64();
  advert.state_version = reader->ReadU64();
  if (!reader->ok() || tag != kReplAdvertTag) {
    return Status::IoError("malformed replication advert in " + dir);
  }
  return advert;
}

std::string DurableSession::SnapshotPath(int64_t seq) const {
  return SessionSnapDir(dir_) + "/" + SessionSnapshotFileName(seq);
}

bool DurableSession::Exists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(SessionSpecPath(dir), ec);
}

DurableSession::DurableSession(std::string dir, SessionState state,
                               DurableSessionOptions options)
    : dir_(std::move(dir)),
      options_(options),
      state_(std::move(state)),
      solve_cache_(std::make_shared<SolveCache>()) {
  if (options_.keep_snapshots == 0) options_.keep_snapshots = 1;
}

Result<DurableSession> DurableSession::Create(std::string dir,
                                              std::string spec,
                                              DurableSessionOptions options) {
  if (Exists(dir)) {
    return Status::InvalidArgument("session dir already holds a session: " +
                                   dir + " (use Open)");
  }
  auto parsed = SessionState::Parse(std::move(spec));
  if (!parsed.ok()) return parsed.status();
  auto state = parsed->Fresh();
  if (!state.ok()) return state.status();

  std::error_code ec;
  std::filesystem::create_directories(SessionSnapDir(dir), ec);
  if (ec) {
    return Status::IoError("cannot create session dir " + dir + ": " +
                           ec.message());
  }
  auto wal = WriteAheadLog::Open(SessionWalDir(dir), options.wal);
  if (!wal.ok()) return wal.status();

  // SPEC is written last: its existence marks the directory as a session.
  {
    std::ofstream out(SessionSpecPath(dir));
    out << state->spec() << "\n";
    if (!out) return Status::IoError("cannot write " + SessionSpecPath(dir));
  }

  DurableSession session(std::move(dir), std::move(state.value()), options);
  session.wal_ = std::make_unique<WriteAheadLog>(std::move(wal.value()));
  return session;
}

Result<DurableSession> DurableSession::Open(std::string dir,
                                            DurableSessionOptions options) {
  std::string spec;
  {
    std::ifstream in(SessionSpecPath(dir));
    if (!in || !std::getline(in, spec)) {
      return Status::IoError("no session at " + dir + " (missing SPEC)");
    }
  }
  auto parsed = SessionState::Parse(std::move(spec));
  if (!parsed.ok()) return parsed.status();
  DurableSession session(std::move(dir), std::move(parsed.value()), options);

  // Newest loadable snapshot wins; a corrupt snapshot (torn write, bit
  // rot — checksums catch both) falls back to the previous one, and
  // ultimately to a fresh state replaying the whole WAL.
  Timer restore_timer;
  auto snapshots = ListSessionSnapshots(SessionSnapDir(session.dir_));
  bool restored = false;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    auto reader = SnapshotReader::FromFile(it->second);
    if (!reader.ok()) continue;
    auto state =
        session.state_.Restore(*reader, it->first, &session.counters_);
    if (!state.ok()) continue;
    session.state_ = std::move(state.value());
    session.snapshot_seq_ = it->first;
    restored = true;
    break;
  }
  if (!restored) {
    auto fresh = session.state_.Fresh();
    if (!fresh.ok()) return fresh.status();
    session.state_ = std::move(fresh.value());
  }

  auto wal = WriteAheadLog::Open(SessionWalDir(session.dir_), options.wal);
  if (!wal.ok()) return wal.status();
  // The WAL tail past the snapshot was counted into kept_total before the
  // crash/spill but is not in the footer; replaying reports its mutations
  // so the cumulative count comes back exact. The same pass rebuilds the
  // dedup filter's tail membership.
  WalBatchApplier applier = session.state_.Applier();
  auto replayed = wal->Replay(session.snapshot_seq_, applier);
  if (!replayed.ok()) return replayed.status();
  session.counters_.restores += 1;
  session.counters_.replayed_records += *replayed;
  session.counters_.kept_total += static_cast<int64_t>(applier.mutations());
  RestoresCounter().Inc();
  RestoreHist().RecordWithContext(
      static_cast<uint64_t>(restore_timer.ElapsedNanos()), session.dir_,
      session.StateVersion());
  session.wal_ = std::make_unique<WriteAheadLog>(std::move(wal.value()));
  return session;
}

Result<IngestOutcome> DurableSession::Ingest(
    std::span<const StreamPoint> batch, bool as_batch) {
  if (!broken_.ok()) return broken_;
  const PointRule rule = state_.rule();
  for (const StreamPoint& point : batch) {
    if (Status s = rule.Check(point.coords.size(), point.group); !s.ok()) {
      return s;
    }
  }

  IngestOutcome outcome;
  // Probe the duplicate guard BEFORE the WAL append: an already-seen id is
  // an idempotent no-op — it must leave no WAL record, no state-version
  // bump, and never reach the distance-scan admission path. Fresh ids are
  // committed to the filter here, slightly ahead of their WAL append; if
  // that append then fails, the session is poisoned and the reopen
  // rebuilds the filter from disk, so the filter can never durably claim
  // an id the log does not hold.
  std::vector<StreamPoint> fresh_storage;
  std::span<const StreamPoint> fresh = batch;
  if (DedupFilter* guard = state_.guard(); guard != nullptr) {
    fresh_storage.reserve(batch.size());
    const uint64_t grows_before = guard->Grows();
    for (const StreamPoint& point : batch) {
      bool is_new;
      if ((probe_sample_++ & 63) == 0) {
        Timer probe_timer;
        is_new = guard->InsertIfAbsent(point.id);
        DedupProbeHist().Record(
            static_cast<uint64_t>(probe_timer.ElapsedNanos()));
      } else {
        is_new = guard->InsertIfAbsent(point.id);
      }
      if (is_new) {
        fresh_storage.push_back(point);
      } else {
        outcome.duplicates += 1;
      }
    }
    fresh = fresh_storage;
    state_.CountRejected(outcome.duplicates);
    DedupCheckedCounter().Add(batch.size());
    DedupRejectedCounter().Add(static_cast<uint64_t>(outcome.duplicates));
    DedupFilterGrowsCounter().Add(guard->Grows() - grows_before);
  }
  // Nothing left to apply (an empty call, or all duplicates) is a complete
  // no-op: no WAL call, and not even the batch counters move, because no
  // batch was applied.
  if (fresh.empty()) return outcome;
  outcome.accepted = static_cast<int64_t>(fresh.size());

  // WAL first: a record applied to the sink but absent from the log could
  // never be recovered; the converse (logged, crash before apply) replays.
  if (Status s = wal_->AppendBatch(fresh); !s.ok()) {
    // The log may now be ahead of the sink; latch the failure so no later
    // ingest or snapshot can act on the diverged pair (see header).
    broken_ = Status(s.code(),
                     "session poisoned by WAL failure, reopen to recover: " +
                         s.message());
    return broken_;
  }
  // One apply call on every path, so `kept_total` counts rung inserts
  // whether the client sent OBSERVE or OBSERVEB, exactly as WAL replay
  // recounts them (a one-point batch is bit-identical to `Observe`).
  const size_t mutations = state_.sink().ObserveBatch(fresh);
  counters_.kept_total += static_cast<int64_t>(mutations);
  ObservedCounter().Add(fresh.size());
  KeptCounter().Add(mutations);
  if (as_batch || fresh.size() != 1) {
    counters_.ingest_batches += 1;
    BatchSizeHist().Record(fresh.size());
  }
  if (Status s = MaybeAutoSnapshot(); !s.ok()) return s;
  return outcome;
}

Status DurableSession::MaybeAutoSnapshot() {
  if (options_.snapshot_every == 0) return Status::Ok();
  if (UnsnapshottedRecords() <
      static_cast<int64_t>(options_.snapshot_every)) {
    return Status::Ok();
  }
  return TakeSnapshot();
}

Status DurableSession::PublishReplicationState() {
  SnapshotWriter writer(SessionReplAdvertPath(dir_));
  writer.WriteString(kReplAdvertTag);
  writer.WriteI64(ObservedElements());
  writer.WriteU64(StateVersion());
  return writer.Commit();
}

Status DurableSession::Sync() {
  if (Status s = wal_->Sync(); !s.ok()) return s;
  // The advert is written only after the fsync, so a follower that reads
  // (seq, version) can rely on every record up to seq being fetchable.
  return PublishReplicationState();
}

Status DurableSession::TakeSnapshot() {
  if (!broken_.ok()) return broken_;
  // The log must be durable through this stream position first: the
  // snapshot claims "everything up to seq is covered", which is only true
  // if no acknowledged record can disappear behind it.
  if (Status s = Sync(); !s.ok()) return s;
  const int64_t seq = ObservedElements();
  if (seq == snapshot_seq_) return Status::Ok();  // up to date (or empty)

  Timer snap_timer;
  // Streamed to the file as it is written: the snapshot is never held
  // whole in memory (the dedup footer alone can run to megabytes).
  SnapshotWriter writer(SnapshotPath(seq));
  if (Status s = state_.WriteHead(writer); !s.ok()) return s;
  // The footer counts this snapshot as taken — a restore from it must see
  // the count that was true once it existed — and the time to write the
  // sink state.
  SessionIngestCounters footer = counters_;
  footer.snapshots_taken += 1;
  footer.snapshot_write_ms_total += snap_timer.ElapsedSeconds() * 1000.0;
  state_.WriteFooters(writer, footer);
  const size_t payload_bytes = writer.PayloadBytes();
  if (Status s = writer.Commit(); !s.ok()) return s;
  snapshot_seq_ = seq;
  counters_.snapshots_taken += 1;
  counters_.snapshot_write_ms_total += snap_timer.ElapsedSeconds() * 1000.0;
  SnapshotBytesCounter().Add(payload_bytes);
  SnapshotWriteHist().RecordWithContext(
      static_cast<uint64_t>(snap_timer.ElapsedNanos()), dir_, StateVersion());

  // Prune snapshots beyond keep_snapshots first, then drop only the WAL
  // prefix below the OLDEST snapshot still retained: if the newest
  // snapshot later fails its checksum, Open's fallback replays forward
  // from an older one — which needs the log from that point on.
  auto oldest_retained = PruneSnapshots();
  if (!oldest_retained.ok()) return oldest_retained.status();
  return wal_->TruncateBefore(*oldest_retained + 1);
}

Result<int64_t> DurableSession::PruneSnapshots() {
  auto snapshots = ListSessionSnapshots(SessionSnapDir(dir_));
  if (snapshots.size() > options_.keep_snapshots) {
    const size_t excess = snapshots.size() - options_.keep_snapshots;
    for (size_t i = 0; i < excess; ++i) {
      std::error_code ec;
      std::filesystem::remove(snapshots[i].second, ec);
      if (ec) {
        return Status::IoError("cannot prune snapshot " + snapshots[i].second +
                               ": " + ec.message());
      }
    }
    snapshots.erase(snapshots.begin(),
                    snapshots.begin() + static_cast<ptrdiff_t>(excess));
  }
  return snapshots.empty() ? snapshot_seq_ : snapshots.front().first;
}

}  // namespace fdm
