#include "service/session_manager.h"

#include <algorithm>
#include <filesystem>
#include <type_traits>
#include <utility>

#include "core/parallelism.h"
#include "geo/simd/kernel_dispatch.h"
#include "obs/metrics.h"
#include "service/session_layout.h"
#include "service/sink_spec.h"

namespace fdm {

namespace {

obs::Gauge& ResidentGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "fdm_sessions_resident", "sessions currently live in memory");
  return g;
}

Status NoSuchSession(const std::string& name) {
  return Status::InvalidArgument("no session named '" + name + "'");
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<SessionManager>> SessionManager::Create(
    SessionManagerOptions options) {
  if (options.root_dir.empty()) {
    return Status::InvalidArgument("root_dir must be set");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.root_dir, ec);
  if (ec) {
    return Status::IoError("cannot create root dir " + options.root_dir +
                           ": " + ec.message());
  }
  std::unique_ptr<SessionManager> manager(
      new SessionManager(std::move(options)));

  // Discover sessions from a previous process lifetime; they stay spilled
  // (entry without a live DurableSession) until first touched.
  for (const auto& entry : std::filesystem::directory_iterator(
           manager->options_.root_dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!IsValidSessionName(name)) continue;
    if (!DurableSession::Exists(entry.path().string())) continue;
    manager->entries_.emplace(name, std::make_shared<Entry>());
  }

  // The periodic durability sweep; its errors are retried next tick.
  manager->snapshot_sweep_.Start(
      manager->options_.background_snapshot_ms,
      [m = manager.get()] { (void)m->SnapshotAll(); });
  return manager;
}

SessionManager::~SessionManager() {
  snapshot_sweep_.Stop();
  // Clean shutdown = snapshot everything so the next start replays nothing.
  (void)SnapshotAll();
}

Status SessionManager::CreateSession(const std::string& name,
                                     const std::string& spec) {
  if (!IsValidSessionName(name)) {
    return Status::InvalidArgument("invalid session name '" + name + "'");
  }
  if (FindEntry(name, /*touch=*/false) != nullptr) {
    return Status::InvalidArgument("session '" + name + "' already exists");
  }
  // Build the session BEFORE publishing the entry: a concurrent touch of
  // the name must either miss the map entirely ("no session") or find a
  // fully working session, never a half-created directory. Two racing
  // CreateSession calls are arbitrated by the directory itself —
  // DurableSession::Create fails for the loser.
  auto session = DurableSession::Create(DirFor(name), spec, options_.session);
  if (!session.ok()) return session.status();
  auto entry = std::make_shared<Entry>();
  SetSession(*entry,
             std::make_unique<DurableSession>(std::move(session.value())));
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->last_used = ++tick_;
    if (!entries_.emplace(name, entry).second) {
      // Lost a pure in-memory race for the name after our directory won
      // (e.g. a concurrent rescan registered it); keep the existing entry.
      SetSession(*entry, nullptr);
      return Status::InvalidArgument("session '" + name + "' already exists");
    }
  }
  EnforceResidencyLimit();
  return Status::Ok();
}

std::shared_ptr<SessionManager::Entry> SessionManager::FindEntry(
    const std::string& name, bool touch) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  if (touch) it->second->last_used = ++tick_;
  return it->second;
}

void SessionManager::SetSession(Entry& entry,
                                std::unique_ptr<DurableSession> session) {
  const bool was_resident = entry.session != nullptr;
  const bool resident = session != nullptr;
  if (resident) session->AttachSolveCache(entry.solve_cache);
  entry.session = std::move(session);
  entry.resident.store(resident, std::memory_order_release);
  if (resident == was_resident) return;
  const size_t count =
      resident ? resident_count_.fetch_add(1, std::memory_order_relaxed) + 1
               : resident_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
  ResidentGauge().Set(static_cast<double>(count));
}

void SessionManager::EnforceResidencyLimit() {
  if (options_.max_resident == 0) return;
  // O(1) fast path: the common case (under the cap) must not pay an
  // O(sessions) scan under the global mutex on every Ingest/Solve.
  if (resident_count_.load(std::memory_order_relaxed) <=
      options_.max_resident) {
    return;
  }
  for (;;) {
    std::shared_ptr<Entry> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t resident = 0;
      uint64_t oldest = 0;
      uint64_t newest = 0;
      for (const auto& [name, entry] : entries_) {
        // Only the atomic mirror may be read here: `session` is written
        // under the entry mutex, which this scan does not hold.
        if (!entry->resident.load(std::memory_order_acquire)) continue;
        ++resident;
        if (victim == nullptr || entry->last_used < oldest) {
          victim = entry;
          oldest = entry->last_used;
        }
        newest = std::max(newest, entry->last_used);
      }
      if (resident <= options_.max_resident) return;
      // Never spill the most recently touched session — it is the one the
      // caller is about to use.
      if (victim == nullptr || victim->last_used == newest) return;
    }
    Exclusive victim_lock(victim->mu);
    if (victim->session == nullptr) continue;  // raced with another spill
    // Spill = snapshot (so recovery is instant, no WAL replay) + drop.
    if (Status s = victim->session->TakeSnapshot(); !s.ok()) {
      // Leave it resident rather than lose data; surface nothing — the
      // next explicit Snapshot()/shutdown will retry and report.
      return;
    }
    SetSession(*victim, nullptr);
  }
}

template <typename Lock, typename Fn>
auto SessionManager::WithSession(const std::string& name, Fn&& fn,
                                 bool* was_resident)
    -> decltype(fn(std::declval<DurableSession&>())) {
  // A shared holder gets a const session: it may run beside other readers.
  using Session = std::conditional_t<std::is_same_v<Lock, Exclusive>,
                                     DurableSession, const DurableSession>;
  if (was_resident != nullptr) *was_resident = true;
  for (;;) {
    const std::shared_ptr<Entry> entry = FindEntry(name, /*touch=*/true);
    if (entry == nullptr) return NoSuchSession(name);
    {
      Lock lock(entry->mu);
      if (entry->session != nullptr) {
        Session& session = *entry->session;
        return fn(session);
      }
    }
    if (was_resident != nullptr) *was_resident = false;
    {
      Exclusive lock(entry->mu);
      if (entry->session == nullptr) {
        // Spilled (or inherited from a previous process): recover from the
        // newest snapshot + WAL tail. The entry's cache is re-attached —
        // state versions survive recovery bit-exactly, so a still-matching
        // cached solution is served on the first post-recovery query.
        auto session = DurableSession::Open(DirFor(name), options_.session);
        if (!session.ok()) return session.status();
        SetSession(*entry, std::make_unique<DurableSession>(
                               std::move(session.value())));
      }
    }
    // The lock is released first: a spill takes the victim's lock, and
    // the session can be spilled again before the retry looks it up.
    EnforceResidencyLimit();
  }
}

Result<IngestOutcome> SessionManager::Ingest(
    const std::string& name, std::span<const StreamPoint> batch,
    bool as_batch) {
  return WithSession<Exclusive>(name, [&](DurableSession& session) {
    return session.Ingest(batch, as_batch);
  });
}

Result<Solution> SessionManager::Solve(const std::string& name) {
  // Shared lock: a cache hit copies the memoized solution without ever
  // touching the sink; a miss runs the post-processing while holding the
  // lock shared, which still excludes ingest (exclusive) but lets STATS
  // and other SOLVEs through. SolveCache serializes the compute itself.
  return WithSession<Shared>(
      name, [](const DurableSession& session) { return session.Solve(); });
}

std::optional<Result<Solution>> SessionManager::SolveIfCached(
    const std::string& name) {
  const std::shared_ptr<Entry> entry = FindEntry(name, /*touch=*/true);
  if (entry == nullptr) return std::nullopt;
  Shared lock(entry->mu);
  if (entry->session == nullptr) return std::nullopt;  // spilled: no reload
  return entry->session->SolveIfCached();
}

Status SessionManager::Snapshot(const std::string& name) {
  return WithSession<Exclusive>(
      name, [](DurableSession& session) { return session.TakeSnapshot(); });
}

Status SessionManager::DropResident(const std::string& name) {
  const std::shared_ptr<Entry> entry = FindEntry(name, /*touch=*/false);
  if (entry == nullptr) return NoSuchSession(name);
  Exclusive lock(entry->mu);
  // Deliberately no snapshot: the in-memory sink state is discarded and
  // must be reconstructed from snapshot + WAL tail. Note the WAL
  // destructor still flushes buffered records, so this models a graceful
  // kill; power-loss artifacts (torn/unsynced tails) are exercised by
  // wal_test and the torn-tail session test, which mutilate the files
  // directly.
  SetSession(*entry, nullptr);
  return Status::Ok();
}

Result<SessionManager::SessionStats> SessionManager::Stats(
    const std::string& name) {
  // `resident` is what the first look found: reading the counters loads
  // a spilled session, so sampling afterwards would always report true.
  bool was_resident = false;
  return WithSession<Shared>(
      name,
      [&](const DurableSession& session) -> Result<SessionStats> {
        SessionStats stats;
        stats.name = name;
        stats.spec = session.spec();
        stats.resident = was_resident;
        stats.observed = session.ObservedElements();
        stats.stored = session.StoredElements();
        stats.snapshot_seq = session.SnapshotSeq();
        stats.state_version = session.StateVersion();
        const SolveCache::Stats cache = session.SolveCacheStats();
        stats.solve_hits = cache.hits;
        stats.solve_misses = cache.misses;
        constexpr double kNsToMs = 1e-6;
        stats.solve_p50_cached_ms = cache.hit_ns.Percentile(0.5) * kNsToMs;
        stats.solve_p99_cached_ms = cache.hit_ns.Percentile(0.99) * kNsToMs;
        stats.solve_p50_cold_ms = cache.miss_ns.Percentile(0.5) * kNsToMs;
        stats.solve_p99_cold_ms = cache.miss_ns.Percentile(0.99) * kNsToMs;
        const SessionIngestCounters& counters = session.IngestCounters();
        stats.kept = counters.kept_total;
        stats.ingest_batches = counters.ingest_batches;
        stats.snapshots_taken = counters.snapshots_taken;
        stats.snapshot_write_ms_total = counters.snapshot_write_ms_total;
        stats.restores = counters.restores;
        stats.replayed_records = counters.replayed_records;
        stats.dedup = session.DedupEnabled();
        stats.duplicates_rejected = session.DuplicatesRejected();
        if (const DedupFilter* filter = session.dedup_filter()) {
          stats.filter_bytes = filter->MemoryBytes();
          stats.filter_grows = filter->Grows();
        }
        stats.kernel = std::string(simd::ActiveKernelName());
        return stats;
      },
      &was_resident);
}

std::vector<std::string> SessionManager::SessionNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

size_t SessionManager::ResidentCount() const {
  return resident_count_.load(std::memory_order_relaxed);
}

Status SessionManager::SnapshotAll() {
  // Collect the resident entries under the map lock, then snapshot them
  // outside it, fanned over the shared pool (each task takes its session's
  // own mutex — sessions are disjoint, so this parallelizes cleanly). A
  // task blocked on a session lock cannot stall the lock's holder: the
  // holder's own fan-outs are separate jobs that it drains itself.
  std::vector<std::shared_ptr<Entry>> resident;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) {
      if (entry->resident.load(std::memory_order_acquire)) {
        resident.push_back(entry);
      }
    }
  }
  std::vector<Status> results(resident.size());
  Parallelism::Run(resident.size(), [&](size_t i) {
    Exclusive lock(resident[i]->mu);
    if (resident[i]->session == nullptr) return;  // spilled meanwhile
    results[i] = resident[i]->session->TakeSnapshot();
  });
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace fdm
