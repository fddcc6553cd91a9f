#include "replica/replica_manager.h"

#include <filesystem>
#include <sstream>
#include <utility>

#include "net/net_client.h"
#include "replica/socket_source.h"
#include "service/durable_session.h"
#include "service/session_layout.h"

namespace fdm {
namespace {

/// A follower SOLVE's answer: `solution` with the position it is correct
/// for, read field by field (`Stats()` would copy the cache histograms).
Result<ReplicaManager::ReplicaSolve> AtPosition(const ReplicaSession& replica,
                                                Result<Solution> solution) {
  if (!solution.ok()) return solution.status();
  ReplicaManager::ReplicaSolve result(std::move(solution.value()));
  result.state_version = replica.StateVersion();
  result.applied_seq = replica.applied_seq();
  result.lag = replica.lag();
  result.stale = result.lag > 0;
  return result;
}

}  // namespace

ReplicaManager::ReplicaManager(ReplicaManagerOptions options,
                               std::string primary_host, int primary_port)
    : options_(std::move(options)),
      primary_host_(std::move(primary_host)),
      primary_port_(primary_port),
      discovery_(primary_host_, primary_port_) {}

Result<std::unique_ptr<ReplicaManager>> ReplicaManager::Create(
    ReplicaManagerOptions options) {
  if (options.primary_root.empty()) {
    return Status::InvalidArgument("primary_root must be set");
  }
  std::string host;
  int port = 0;
  const bool over_tcp = net::ParseTcpAddress(options.primary_root, &host,
                                             &port);
  if (!over_tcp) {
    std::error_code ec;
    if (!std::filesystem::is_directory(options.primary_root, ec)) {
      return Status::IoError("primary root is not a directory: " +
                             options.primary_root);
    }
  }
  std::unique_ptr<ReplicaManager> manager(
      new ReplicaManager(std::move(options), std::move(host), port));
  manager->DiscoverSessions();
  // Per-session errors are retried next tick.
  manager->poller_.Start(manager->options_.poll_ms,
                         [m = manager.get()] { (void)m->PollAll(); });
  return manager;
}

// Polling stops before the entries it polls go.
ReplicaManager::~ReplicaManager() { poller_.Stop(); }

void ReplicaManager::DiscoverSessions() {
  if (!primary_host_.empty()) {
    // Ask the primary's front end. Discovery failing (primary down, mid-
    // restart) is not fatal: known sessions keep serving at their applied
    // positions and the next sweep retries.
    Result<std::string> reply = [this] {
      std::lock_guard<std::mutex> lock(discovery_mu_);
      return discovery_.Call("LIST");
    }();
    if (!reply.ok()) return;
    std::istringstream in(*reply);
    std::string token;
    if (!(in >> token) || token != "OK") return;
    while (in >> token) {
      if (!IsValidSessionName(token)) continue;
      std::lock_guard<std::mutex> lock(mu_);
      entries_.emplace(token, std::make_shared<Entry>());  // no-op if known
    }
    return;
  }
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.primary_root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!IsValidSessionName(name)) continue;
    if (!DurableSession::Exists(entry.path().string())) continue;
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(name, std::make_shared<Entry>());  // no-op if known
  }
}

std::shared_ptr<ReplicaManager::Entry> ReplicaManager::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<ReplicaManager::Entry>> ReplicaManager::Follower(
    const std::string& name) {
  std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) {
    // Maybe created on the primary after our last scan.
    DiscoverSessions();
    entry = FindEntry(name);
    if (entry == nullptr) {
      return Status::InvalidArgument("no session named '" + name +
                                     "' under " + options_.primary_root);
    }
  }
  {
    // Bootstrapped once and never reset, so a shared look finds it.
    std::shared_lock<std::shared_mutex> entry_lock(entry->mu);
    if (entry->replica != nullptr) return entry;
  }
  std::unique_lock<std::shared_mutex> entry_lock(entry->mu);
  if (entry->replica == nullptr) {
    std::shared_ptr<ReplicationSource> source;
    if (!primary_host_.empty()) {
      source = std::make_shared<SocketReplicationSource>(primary_host_,
                                                         primary_port_, name);
    } else {
      source = std::make_shared<DirReplicationSource>(options_.primary_root +
                                                      "/" + name);
    }
    auto replica =
        ReplicaSession::Bootstrap(std::move(source), options_.replica);
    if (!replica.ok()) return replica.status();
    entry->replica =
        std::make_unique<ReplicaSession>(std::move(replica.value()));
  }
  return entry;
}

Result<ReplicaManager::ReplicaSolve> ReplicaManager::Solve(
    const std::string& name) {
  auto entry = Follower(name);
  if (!entry.ok()) return entry.status();
  std::shared_lock<std::shared_mutex> lock((*entry)->mu);
  const ReplicaSession& replica = *(*entry)->replica;
  return AtPosition(replica, replica.Solve());
}

std::optional<Result<ReplicaManager::ReplicaSolve>>
ReplicaManager::SolveIfCached(const std::string& name) {
  const std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) return std::nullopt;
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  if (entry->replica == nullptr) return std::nullopt;  // bootstrap elsewhere
  auto solution = entry->replica->SolveIfCached();
  if (!solution.has_value()) return std::nullopt;
  return AtPosition(*entry->replica, *std::move(solution));
}

Result<ReplicaSession::ReplicaStats> ReplicaManager::Stats(
    const std::string& name) {
  auto entry = Follower(name);
  if (!entry.ok()) return entry.status();
  std::shared_lock<std::shared_mutex> lock((*entry)->mu);
  return (*entry)->replica->Stats();
}

Result<ReplicaSession::ReplicaStats> ReplicaManager::Lag(
    const std::string& name) {
  auto entry = Follower(name);
  if (!entry.ok()) return entry.status();
  // RefreshLag only rewrites the manifest view, but that is a write as far
  // as concurrent Stats readers are concerned — take the lock exclusive.
  std::unique_lock<std::shared_mutex> lock((*entry)->mu);
  if (Status s = (*entry)->replica->RefreshLag(); !s.ok()) return s;
  return (*entry)->replica->Stats();
}

Result<int64_t> ReplicaManager::Poll(const std::string& name) {
  auto entry = Follower(name);
  if (!entry.ok()) return entry.status();
  std::unique_lock<std::shared_mutex> lock((*entry)->mu);
  return (*entry)->replica->Poll();
}

Status ReplicaManager::PollAll() {
  DiscoverSessions();
  Status first_error;
  for (const std::string& name : KnownNames()) {
    auto applied = Poll(name);
    if (!applied.ok() && first_error.ok()) first_error = applied.status();
  }
  return first_error;
}

std::vector<std::string> ReplicaManager::SessionNames() {
  DiscoverSessions();
  return KnownNames();
}

std::vector<std::string> ReplicaManager::KnownNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace fdm
