#include "net/dispatch.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "replica/replica_manager.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "util/stringutil.h"

namespace fdm::net {
namespace {

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_net_requests_total", "Requests dispatched (all transports)");
  return c;
}

/// True iff nothing but whitespace remains on the command line. Every
/// no-payload verb checks this: `METRICS json garbage` or `SOLVE s extra`
/// is a framing bug on the client side, and silently accepting it on some
/// verbs while OBSERVEB strictly rejects it taught clients nothing.
bool AtLineEnd(std::istringstream& in) {
  std::string extra;
  return !(in >> extra);
}

void ReplyStatus(const Status& status, std::string* out) {
  if (status.ok()) {
    out->append("OK\n");
  } else {
    out->append("ERR ").append(status.ToString()).append("\n");
  }
}

void AppendIds(const Solution& solution, std::string* out) {
  // `<<` formatting, not std::to_string: the latter pads doubles to six
  // decimals and would silently change every SOLVE reply byte.
  std::ostringstream text;
  text << "div=" << solution.diversity << " ids=";
  const auto ids = solution.Ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) text << ',';
    text << ids[i];
  }
  out->append(text.str());
}

/// Parses `<id> <group> <c0> <c1> ...` from `in` into the output params.
/// Returns "" on success, else the reason ("requires <id> <group>
/// <coords...>", "requires numeric coordinates", "requires finite
/// coordinates"). Non-finite coordinates are rejected here — before
/// anything reaches the WAL — because `operator>>` happily parses `inf`
/// and `nan`, and a persisted non-finite point would poison every future
/// distance comparison AND come back at every recovery replay
/// (`ReadDatasetCsv` was hardened against exactly this class of input).
std::string ParsePointFields(std::istringstream& in, int64_t* id,
                             int32_t* group, std::vector<double>* coords) {
  if (!(in >> *id >> *group)) {
    return "requires <id> <group> <coords...>";
  }
  const size_t start = coords->size();
  double c = 0.0;
  while (in >> c) coords->push_back(c);
  // `>>` stops silently at a non-numeric token; distinguish "end of line"
  // from "garbage mid-line" — a malformed point must be rejected, never
  // half-parsed (the session also re-validates the dimension before
  // anything reaches the WAL).
  if (coords->size() == start || !in.eof()) {
    coords->resize(start);
    return "requires numeric coordinates";
  }
  for (size_t i = start; i < coords->size(); ++i) {
    if (!std::isfinite((*coords)[i])) {
      coords->resize(start);
      return "requires finite coordinates";
    }
  }
  return "";
}

}  // namespace

struct RequestDispatcher::ReplSource {
  explicit ReplSource(std::string dir) : source(std::move(dir)) {}
  std::mutex mu;  // serializes this session's R-verbs
  DirReplicationSource source;
};

bool StringLineSource::NextLine(std::string* line) {
  if (rest_.empty()) return false;
  const size_t nl = rest_.find('\n');
  if (nl == std::string_view::npos) {
    line->assign(rest_);
    rest_ = {};
  } else {
    line->assign(rest_.substr(0, nl));
    rest_.remove_prefix(nl + 1);
  }
  return true;
}

bool StreamLineSource::NextLine(std::string* line) {
  return static_cast<bool>(std::getline(in_, *line));
}

RequestDispatcher::RequestDispatcher(SessionManager* sessions,
                                     std::string root_dir)
    : sessions_(sessions), root_dir_(std::move(root_dir)) {}

RequestDispatcher::RequestDispatcher(ReplicaManager* replicas,
                                     std::string primary_root)
    : replicas_(replicas), root_dir_(std::move(primary_root)) {}

RequestDispatcher::~RequestDispatcher() = default;

RequestInfo RequestDispatcher::Classify(const std::string& line) const {
  RequestInfo info;
  std::istringstream in(line);
  if (!(in >> info.verb)) return info;  // blank line
  if (info.verb == "LIST" || info.verb == "METRICS" || info.verb == "QUIT") {
    return info;
  }
  if (!(in >> info.session)) return info;
  if (info.verb == "OBSERVEB") {
    int64_t n = 0;
    if (in >> n && n > 0) info.payload_lines = n;
  } else if (info.verb == "SOLVE") {
    info.cold_solve = sessions_ != nullptr
                          ? !sessions_->SolveLikelyCached(info.session)
                          : !replicas_->SolveLikelyCached(info.session);
  }
  return info;
}

RequestOutcome RequestDispatcher::HandleRequest(const std::string& line,
                                                LineSource& payload,
                                                std::string* out) {
  std::istringstream in(line);
  std::string command;
  if (!(in >> command)) return RequestOutcome::kReply;  // blank line
  RequestsCounter().Inc();
  return sessions_ != nullptr ? HandlePrimary(command, in, payload, out)
                              : HandleFollower(command, in, payload, out);
}

bool RequestDispatcher::HandleMetricsVerb(const std::string& command,
                                          std::istringstream& in,
                                          std::string* out) {
  if (command != "METRICS") return false;
  std::string mode;
  in >> mode;
  if (mode == "json" && AtLineEnd(in)) {
    out->append("OK ")
        .append(obs::MetricsRegistry::Global().RenderJson())
        .append("\n");
  } else if (mode.empty()) {
    out->append(obs::MetricsRegistry::Global().RenderPrometheus());
    out->append("OK\n");
  } else {
    out->append("ERR METRICS takes no argument or 'json'\n");
  }
  return true;
}

void RequestDispatcher::HandleReplicationVerb(const std::string& command,
                                              const std::string& name,
                                              std::istringstream& in,
                                              std::string* out) {
  if (!IsValidSessionName(name)) {
    out->append("ERR invalid session name\n");
    return;
  }
  int64_t seq = 0;
  uint64_t offset = 0;
  if (command == "RFETCHSNAP") {
    if (!(in >> seq) || !AtLineEnd(in)) {
      out->append("ERR RFETCHSNAP requires <name> <seq>\n");
      return;
    }
  } else if (command == "RFETCHWAL") {
    std::string offset_text;
    if (!(in >> seq) || ((in >> offset_text) && !AtLineEnd(in)) ||
        (!offset_text.empty() && !ParseUint64(offset_text, &offset))) {
      out->append("ERR RFETCHWAL requires <name> <first_seq> [<offset>]\n");
      return;
    }
  } else if (!AtLineEnd(in)) {
    out->append("ERR RMANIFEST takes only a session name\n");
    return;
  }
  std::shared_ptr<ReplSource> entry;
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    auto it = repl_sources_.find(name);
    if (it == repl_sources_.end()) {
      const std::string dir = root_dir_ + "/" + name;
      if (!DurableSession::Exists(dir)) {
        out->append("ERR no session named '").append(name).append("'\n");
        return;
      }
      it = repl_sources_.emplace(name, std::make_shared<ReplSource>(dir))
               .first;
    }
    entry = it->second;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  DirReplicationSource& source = entry->source;
  if (command == "RMANIFEST") {
    auto manifest = source.GetManifest();
    if (!manifest.ok()) {
      out->append("ERR ").append(manifest.status().ToString()).append("\n");
      return;
    }
    out->append("OK primary_seq=")
        .append(std::to_string(manifest->primary_seq));
    out->append(" version=").append(std::to_string(manifest->primary_version));
    out->append(" advert_seq=").append(std::to_string(manifest->advert_seq));
    out->append(" snapshots=");
    if (manifest->snapshots.empty()) out->push_back('-');
    for (size_t i = 0; i < manifest->snapshots.size(); ++i) {
      const ReplicaSnapshotInfo& s = manifest->snapshots[i];
      if (i > 0) out->push_back(',');
      out->append(std::to_string(s.seq))
          .append(":")
          .append(std::to_string(s.bytes))
          .append(":")
          .append(std::to_string(s.checksum));
    }
    out->append(" segments=");
    if (manifest->segments.empty()) out->push_back('-');
    for (size_t i = 0; i < manifest->segments.size(); ++i) {
      const WalSegmentInfo& s = manifest->segments[i];
      if (i > 0) out->push_back(',');
      out->append(std::to_string(s.first_seq))
          .append(":")
          .append(std::to_string(s.bytes))
          .append(":")
          .append(std::to_string(s.checksum));
    }
    // The spec goes last and runs to end of line: it contains spaces.
    out->append(" spec=").append(manifest->spec).append("\n");
    return;
  }
  // Binary reply: a one-line header announcing the byte count, the raw
  // bytes, then a newline to restore line discipline. Over TCP the whole
  // reply is one length-delimited frame; over stdin the client reads
  // exactly `bytes=` bytes after the header line. The source reads the
  // range straight into `out` once the header is in, sized up front:
  // growing by the trailing newline would double a multi-MiB buffer.
  const auto header = [out](uint64_t bytes) {
    const std::string line = "OK bytes=" + std::to_string(bytes) + "\n";
    out->reserve(out->size() + line.size() + bytes + 1);
    out->append(line);
  };
  const Status fetched =
      command == "RFETCHSNAP" ? source.AppendSnapshot(seq, out, header)
                              : source.AppendWalSegment(seq, offset, out,
                                                        header);
  if (!fetched.ok()) {
    out->append("ERR ").append(fetched.ToString()).append("\n");
    return;
  }
  out->push_back('\n');
}

RequestOutcome RequestDispatcher::HandlePrimary(const std::string& command,
                                                std::istringstream& in,
                                                LineSource& payload,
                                                std::string* out) {
  SessionManager& sessions = *sessions_;
  if (command == "QUIT") {
    if (!AtLineEnd(in)) {
      out->append("ERR QUIT takes no arguments\n");
      return RequestOutcome::kReply;
    }
    ReplyStatus(sessions.SnapshotAll(), out);
    return RequestOutcome::kQuit;
  }
  if (HandleMetricsVerb(command, in, out)) return RequestOutcome::kReply;
  if (command == "LIST") {
    if (!AtLineEnd(in)) {
      out->append("ERR LIST takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK");
    for (const std::string& name : sessions.SessionNames()) {
      out->push_back(' ');
      out->append(name);
    }
    out->push_back('\n');
    return RequestOutcome::kReply;
  }

  std::string name;
  if (!(in >> name)) {
    out->append("ERR ").append(command).append(" requires a session name\n");
    return RequestOutcome::kReply;
  }
  if (command == "CREATE") {
    std::string spec;
    std::getline(in, spec);
    ReplyStatus(sessions.CreateSession(name, std::string(Trim(spec))), out);
  } else if (command == "OBSERVE") {
    int64_t id = -1;
    int32_t group = 0;
    std::vector<double> coords;
    const std::string error = ParsePointFields(in, &id, &group, &coords);
    if (!error.empty()) {
      out->append("ERR OBSERVE ").append(error).append("\n");
      return RequestOutcome::kReply;
    }
    const StreamPoint point{id, group, coords};
    auto outcome = sessions.Ingest(name, {&point, 1}, /*as_batch=*/false);
    if (!outcome.ok()) {
      out->append("ERR ").append(outcome.status().ToString()).append("\n");
    } else if (outcome->duplicates > 0) {
      out->append("OK dup=1\n");
    } else {
      out->append("OK\n");
    }
  } else if (command == "OBSERVEB") {
    int64_t n = -1;
    if (!(in >> n) || n < 0) {
      out->append("ERR OBSERVEB requires <name> <n>\n");
      return RequestOutcome::kReply;
    }
    in.clear();  // the int read may have latched eofbit; that's fine
    if (!AtLineEnd(in)) {
      // The count DID parse, so the client sent n point lines — drain
      // them before ERRing or they'd be misread as commands.
      std::string drained;
      for (int64_t i = 0; i < n && payload.NextLine(&drained); ++i) {
      }
      out->append("ERR OBSERVEB takes nothing after <n>\n");
      return RequestOutcome::kReply;
    }
    // Parse the n announced point lines. A malformed line fails the
    // whole batch (nothing is applied — a batch is one request), but
    // the remaining lines are still consumed so the stream stays in
    // command framing.
    std::vector<int64_t> ids;
    std::vector<int32_t> groups;
    std::vector<size_t> offsets;  // per-point start into `coords`
    std::vector<double> coords;
    std::string error;
    std::string point_line;
    for (int64_t i = 0; i < n; ++i) {
      if (!payload.NextLine(&point_line)) {
        error = "stream ended mid-batch";
        break;
      }
      if (!error.empty()) continue;  // draining after a bad line
      std::istringstream pin(point_line);
      int64_t id = -1;
      int32_t group = 0;
      const size_t start = coords.size();
      const std::string reason = ParsePointFields(pin, &id, &group, &coords);
      if (!reason.empty()) {
        error = "batch line " + std::to_string(i) + " " + reason;
        continue;
      }
      ids.push_back(id);
      groups.push_back(group);
      offsets.push_back(start);
    }
    if (!error.empty()) {
      out->append("ERR OBSERVEB ").append(error).append("\n");
      return RequestOutcome::kReply;
    }
    // Spans are built only now: `coords` no longer reallocates.
    offsets.push_back(coords.size());
    std::vector<StreamPoint> points;
    points.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      points.push_back(StreamPoint{
          ids[i], groups[i],
          std::span<const double>(coords.data() + offsets[i],
                                  offsets[i + 1] - offsets[i])});
    }
    auto outcome = sessions.Ingest(name, points, /*as_batch=*/true);
    if (!outcome.ok()) {
      out->append("ERR ").append(outcome.status().ToString()).append("\n");
    } else {
      out->append("OK kept=")
          .append(std::to_string(outcome->accepted))
          .append(" dup=")
          .append(std::to_string(outcome->duplicates))
          .append("\n");
    }
  } else if (command == "SOLVE") {
    if (!AtLineEnd(in)) {
      out->append("ERR SOLVE takes only a session name\n");
      return RequestOutcome::kReply;
    }
    auto solution = sessions.Solve(name);
    if (!solution.ok()) {
      out->append("ERR ").append(solution.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    out->append("OK ");
    AppendIds(*solution, out);
    out->push_back('\n');
  } else if (command == "RMANIFEST" || command == "RFETCHSNAP" ||
             command == "RFETCHWAL") {
    HandleReplicationVerb(command, name, in, out);
  } else if (command == "REPLICA" || command == "LAG") {
    out->append("ERR ").append(command).append(
        " is a follower verb (start with --follow=DIR)\n");
  } else if (command == "SNAPSHOT") {
    if (!AtLineEnd(in)) {
      out->append("ERR SNAPSHOT takes only a session name\n");
      return RequestOutcome::kReply;
    }
    ReplyStatus(sessions.Snapshot(name), out);
  } else if (command == "RESTORE") {
    if (!AtLineEnd(in)) {
      out->append("ERR RESTORE takes only a session name\n");
      return RequestOutcome::kReply;
    }
    // Crash drill: forget the in-memory sink, then recover it from the
    // newest snapshot + WAL tail (the next touch triggers the reload).
    Status dropped = sessions.DropResident(name);
    if (!dropped.ok()) {
      ReplyStatus(dropped, out);
      return RequestOutcome::kReply;
    }
    auto stats = sessions.Stats(name);
    if (!stats.ok()) {
      out->append("ERR ").append(stats.status().ToString()).append("\n");
    } else {
      out->append("OK observed=")
          .append(std::to_string(stats->observed))
          .append("\n");
    }
  } else if (command == "STATS") {
    if (!AtLineEnd(in)) {
      out->append("ERR STATS takes only a session name\n");
      return RequestOutcome::kReply;
    }
    auto stats = sessions.Stats(name);
    if (!stats.ok()) {
      out->append("ERR ").append(stats.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    std::ostringstream line;
    line << "OK observed=" << stats->observed << " kept=" << stats->kept
         << " stored=" << stats->stored
         << " snapshot_seq=" << stats->snapshot_seq
         << " version=" << stats->state_version
         << " solve_hits=" << stats->solve_hits
         << " solve_misses=" << stats->solve_misses
         << " solve_p50_cached_ms=" << stats->solve_p50_cached_ms
         << " solve_p99_cached_ms=" << stats->solve_p99_cached_ms
         << " solve_p50_cold_ms=" << stats->solve_p50_cold_ms
         << " solve_p99_cold_ms=" << stats->solve_p99_cold_ms
         << " snapshots=" << stats->snapshots_taken
         << " restores=" << stats->restores
         << " replayed=" << stats->replayed_records
         << " dedup=" << (stats->dedup ? "on" : "off")
         << " duplicates_rejected=" << stats->duplicates_rejected
         << " filter_bytes=" << stats->filter_bytes
         << " filter_grows=" << stats->filter_grows
         << " kernel=" << stats->kernel << " spec=\"" << stats->spec
         << "\"\n";
    out->append(line.str());
  } else {
    out->append("ERR unknown command '").append(command).append("'\n");
  }
  return RequestOutcome::kReply;
}

RequestOutcome RequestDispatcher::HandleFollower(const std::string& command,
                                                 std::istringstream& in,
                                                 LineSource& payload,
                                                 std::string* out) {
  ReplicaManager& replicas = *replicas_;
  if (command == "QUIT") {
    if (!AtLineEnd(in)) {
      out->append("ERR QUIT takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK\n");
    return RequestOutcome::kQuit;
  }
  if (HandleMetricsVerb(command, in, out)) return RequestOutcome::kReply;
  if (command == "LIST") {
    if (!AtLineEnd(in)) {
      out->append("ERR LIST takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK");
    for (const std::string& name : replicas.SessionNames()) {
      out->push_back(' ');
      out->append(name);
    }
    out->push_back('\n');
    return RequestOutcome::kReply;
  }
  if (command == "CREATE" || command == "OBSERVE" || command == "OBSERVEB" ||
      command == "SNAPSHOT" || command == "RESTORE") {
    if (command == "OBSERVEB") {
      // Keep the framing invariant even when rejecting: the client
      // announced n point lines and will send them — swallow them so
      // they are not misread as commands.
      std::string name;
      int64_t n = 0;
      if ((in >> name >> n) && n > 0) {
        std::string discard;
        for (int64_t i = 0; i < n && payload.NextLine(&discard); ++i) {
        }
      }
    }
    out->append("ERR read-only follower (this process serves --follow=")
        .append(root_dir_)
        .append(")\n");
    return RequestOutcome::kReply;
  }

  std::string name;
  if (!(in >> name)) {
    out->append("ERR ").append(command).append(" requires a session name\n");
    return RequestOutcome::kReply;
  }
  if (command == "SOLVE") {
    if (!AtLineEnd(in)) {
      out->append("ERR SOLVE takes only a session name\n");
      return RequestOutcome::kReply;
    }
    auto solve = replicas.Solve(name);
    if (!solve.ok()) {
      out->append("ERR ").append(solve.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    out->append("OK ");
    AppendIds(solve->solution, out);
    std::ostringstream tail;
    tail << " version=" << solve->state_version
         << " applied=" << solve->applied_seq << " lag=" << solve->lag
         << " stale=" << (solve->stale ? 1 : 0) << "\n";
    out->append(tail.str());
  } else if (command == "STATS" || command == "LAG" || command == "REPLICA") {
    if (!AtLineEnd(in)) {
      out->append("ERR ").append(command).append(
          " takes only a session name\n");
      return RequestOutcome::kReply;
    }
    int64_t just_applied = -1;
    if (command == "REPLICA") {
      auto applied = replicas.Poll(name);
      if (!applied.ok()) {
        out->append("ERR ").append(applied.status().ToString()).append("\n");
        return RequestOutcome::kReply;
      }
      just_applied = *applied;
    }
    auto stats =
        command == "LAG" ? replicas.Lag(name) : replicas.Stats(name);
    if (!stats.ok()) {
      out->append("ERR ").append(stats.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    std::ostringstream line;
    line << "OK";
    if (just_applied >= 0) line << " applied_records=" << just_applied;
    line << " applied=" << stats->applied_seq
         << " primary=" << stats->primary_seq << " lag=" << stats->lag
         << " stale=" << (stats->stale ? 1 : 0)
         << " version=" << stats->state_version
         << " resyncs=" << stats->resyncs
         << " segments_fetched=" << stats->segments_fetched
         << " snapshots_loaded=" << stats->snapshots_loaded
         << " dedup=" << (stats->dedup ? "on" : "off")
         << " duplicates_rejected=" << stats->duplicates_rejected
         << " filter_bytes=" << stats->filter_bytes
         << " solve_hits=" << stats->solve.hits
         << " solve_misses=" << stats->solve.misses << "\n";
    out->append(line.str());
  } else {
    out->append("ERR unknown command '").append(command).append("'\n");
  }
  return RequestOutcome::kReply;
}

int ServeLines(RequestDispatcher& dispatcher, std::istream& in,
               std::ostream& out) {
  StreamLineSource payload(in);
  std::string line;
  std::string reply;
  while (std::getline(in, line)) {
    reply.clear();
    const RequestOutcome outcome =
        dispatcher.HandleRequest(line, payload, &reply);
    out << reply;
    out.flush();
    if (outcome == RequestOutcome::kQuit) break;
  }
  return 0;
}

}  // namespace fdm::net
