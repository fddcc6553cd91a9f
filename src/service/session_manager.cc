#include "service/session_manager.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "core/parallelism.h"
#include "geo/simd/kernel_dispatch.h"
#include "obs/metrics.h"
#include "service/sink_spec.h"

namespace fdm {

namespace {

obs::Gauge& ResidentGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "fdm_sessions_resident", "sessions currently live in memory");
  return g;
}

bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  if (name[0] == '.') return false;  // no hidden dirs / "." / ".."
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
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
    if (!ValidSessionName(name)) continue;
    if (!DurableSession::Exists(entry.path().string())) continue;
    manager->entries_.emplace(name, std::make_shared<Entry>());
  }

  if (manager->options_.background_snapshot_ms > 0) {
    manager->background_ = std::thread([m = manager.get()] {
      m->BackgroundLoop();
    });
  }
  return manager;
}

SessionManager::~SessionManager() {
  if (background_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(background_mu_);
      stopping_ = true;
    }
    background_cv_.notify_all();
    background_.join();
  }
  // Clean shutdown = snapshot everything so the next start replays nothing.
  (void)SnapshotAll();
}

Status SessionManager::CreateSession(const std::string& name,
                                     const std::string& spec) {
  if (!ValidSessionName(name)) {
    return Status::InvalidArgument("invalid session name '" + name + "'");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(name) != 0) {
      return Status::InvalidArgument("session '" + name + "' already exists");
    }
  }
  // Build the session BEFORE publishing the entry: a concurrent touch of
  // the name must either miss the map entirely ("no session") or find a
  // fully working session, never a half-created directory. Two racing
  // CreateSession calls are arbitrated by the directory itself —
  // DurableSession::Create fails for the loser.
  auto session = DurableSession::Create(DirFor(name), spec, options_.session);
  if (!session.ok()) return session.status();
  auto entry = std::make_shared<Entry>();
  entry->session =
      std::make_unique<DurableSession>(std::move(session.value()));
  entry->session->AttachSolveCache(entry->solve_cache);
  entry->resident.store(true, std::memory_order_release);
  resident_count_.fetch_add(1, std::memory_order_relaxed);
  ResidentGauge().Set(static_cast<double>(
      resident_count_.load(std::memory_order_relaxed)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->last_used = ++tick_;
    if (!entries_.emplace(name, entry).second) {
      // Lost a pure in-memory race for the name after our directory won
      // (e.g. a concurrent rescan registered it); keep the existing entry.
      resident_count_.fetch_sub(1, std::memory_order_relaxed);
      ResidentGauge().Set(static_cast<double>(
          resident_count_.load(std::memory_order_relaxed)));
      return Status::InvalidArgument("session '" + name + "' already exists");
    }
  }
  EnforceResidencyLimit();
  return Status::Ok();
}

Result<std::shared_ptr<SessionManager::Entry>> SessionManager::Resident(
    const std::string& name) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::InvalidArgument("no session named '" + name + "'");
    }
    entry = it->second;
    entry->last_used = ++tick_;
  }
  {
    std::unique_lock<std::shared_mutex> entry_lock(entry->mu);
    if (entry->session == nullptr) {
      // Spilled (or inherited from a previous process): recover from the
      // newest snapshot + WAL tail. Re-attach the entry's cache — state
      // versions survive recovery bit-exactly, so a still-matching cached
      // solution is served on the first post-recovery query.
      auto session = DurableSession::Open(DirFor(name), options_.session);
      if (!session.ok()) return session.status();
      entry->session =
          std::make_unique<DurableSession>(std::move(session.value()));
      entry->session->AttachSolveCache(entry->solve_cache);
      entry->resident.store(true, std::memory_order_release);
      resident_count_.fetch_add(1, std::memory_order_relaxed);
      ResidentGauge().Set(static_cast<double>(
          resident_count_.load(std::memory_order_relaxed)));
    }
  }
  EnforceResidencyLimit();
  return entry;
}

void SessionManager::EnforceResidencyLimit() {
  if (options_.max_resident == 0) return;
  // O(1) fast path: the common case (under the cap) must not pay an
  // O(sessions) scan under the global mutex on every Observe/Solve.
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
    std::unique_lock<std::shared_mutex> victim_lock(victim->mu);
    if (victim->session == nullptr) continue;  // raced with another spill
    // Spill = snapshot (so recovery is instant, no WAL replay) + drop.
    if (Status s = victim->session->TakeSnapshot(); !s.ok()) {
      // Leave it resident rather than lose data; surface nothing — the
      // next explicit Snapshot()/shutdown will retry and report.
      return;
    }
    victim->session.reset();
    victim->resident.store(false, std::memory_order_release);
    resident_count_.fetch_sub(1, std::memory_order_relaxed);
    ResidentGauge().Set(static_cast<double>(
        resident_count_.load(std::memory_order_relaxed)));
  }
}

template <typename Fn>
auto SessionManager::WithSession(const std::string& name, Fn&& fn)
    -> decltype(fn(std::declval<DurableSession&>())) {
  for (;;) {
    auto entry = Resident(name);
    if (!entry.ok()) return entry.status();
    std::unique_lock<std::shared_mutex> lock((*entry)->mu);
    // The session can be spilled between Resident() and the lock; the
    // guard's scope is the loop body, so retrying releases it first (the
    // entry mutex is not recursive).
    if ((*entry)->session == nullptr) continue;
    return fn(*(*entry)->session);
  }
}

template <typename Fn>
auto SessionManager::WithSessionShared(const std::string& name, Fn&& fn)
    -> decltype(fn(std::declval<const DurableSession&>())) {
  for (;;) {
    auto entry = Resident(name);
    if (!entry.ok()) return entry.status();
    std::shared_lock<std::shared_mutex> lock((*entry)->mu);
    // Same spill race as WithSession: reloading needs the exclusive lock,
    // so drop the shared one and go back through Resident().
    if ((*entry)->session == nullptr) continue;
    return fn(static_cast<const DurableSession&>(*(*entry)->session));
  }
}

Status SessionManager::Observe(const std::string& name,
                               const StreamPoint& point) {
  return WithSession(
      name, [&](DurableSession& session) { return session.Observe(point); });
}

Status SessionManager::ObserveBatch(const std::string& name,
                                    std::span<const StreamPoint> batch) {
  return WithSession(name, [&](DurableSession& session) {
    return session.ObserveBatch(batch);
  });
}

Result<IngestOutcome> SessionManager::Ingest(
    const std::string& name, std::span<const StreamPoint> batch,
    bool as_batch) {
  return WithSession(name, [&](DurableSession& session) {
    return session.Ingest(batch, as_batch);
  });
}

Result<Solution> SessionManager::Solve(const std::string& name) {
  // Shared lock: a cache hit copies the memoized solution without ever
  // touching the sink; a miss runs the post-processing while holding the
  // lock shared, which still excludes ingest (exclusive) but lets STATS
  // and other SOLVEs through. SolveCache serializes the compute itself.
  return WithSessionShared(name, [](const DurableSession& session) {
    return session.Solve();
  });
}

bool SessionManager::SolveLikelyCached(const std::string& name) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    entry = it->second;
  }
  std::shared_lock<std::shared_mutex> entry_lock(entry->mu);
  if (entry->session == nullptr) return false;  // spilled: a reload is cold
  return entry->solve_cache->IsCachedAt(entry->session->StateVersion());
}

Status SessionManager::Snapshot(const std::string& name) {
  return WithSession(name, [](DurableSession& session) {
    return session.TakeSnapshot();
  });
}

Status SessionManager::DropResident(const std::string& name) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::InvalidArgument("no session named '" + name + "'");
    }
    entry = it->second;
  }
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  // Deliberately no snapshot: the in-memory sink state is discarded and
  // must be reconstructed from snapshot + WAL tail. Note the WAL
  // destructor still flushes buffered records, so this models a graceful
  // kill; power-loss artifacts (torn/unsynced tails) are exercised by
  // wal_test and the torn-tail session test, which mutilate the files
  // directly.
  if (entry->session != nullptr) {
    entry->session.reset();
    entry->resident.store(false, std::memory_order_release);
    resident_count_.fetch_sub(1, std::memory_order_relaxed);
    ResidentGauge().Set(static_cast<double>(
        resident_count_.load(std::memory_order_relaxed)));
  }
  return Status::Ok();
}

Result<SessionManager::SessionStats> SessionManager::Stats(
    const std::string& name) {
  // Record residency BEFORE the query: reading the counters below loads a
  // spilled session, so sampling afterwards would always report true. The
  // entry mutex is taken only after releasing the map mutex (the lock
  // order everywhere else), so the sample is a snapshot, not a guarantee.
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::InvalidArgument("no session named '" + name + "'");
    }
    entry = it->second;
  }
  bool was_resident = false;
  {
    std::shared_lock<std::shared_mutex> entry_lock(entry->mu);
    was_resident = entry->session != nullptr;
  }
  return WithSessionShared(
      name, [&](const DurableSession& session) -> Result<SessionStats> {
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
      });
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
    std::unique_lock<std::shared_mutex> lock(resident[i]->mu);
    if (resident[i]->session == nullptr) return;  // spilled meanwhile
    results[i] = resident[i]->session->TakeSnapshot();
  });
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void SessionManager::BackgroundLoop() {
  const auto period =
      std::chrono::milliseconds(options_.background_snapshot_ms);
  std::unique_lock<std::mutex> lock(background_mu_);
  while (!stopping_) {
    background_cv_.wait_for(lock, period, [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    (void)SnapshotAll();  // periodic durability sweep; errors retried next tick
    lock.lock();
  }
}

}  // namespace fdm
