#include "net/dispatch.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "obs/metrics.h"
#include "replica/replica_manager.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "util/binary_io.h"
#include "util/stringutil.h"

namespace fdm::net {
namespace {

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_net_requests_total", "Requests dispatched (all transports)");
  return c;
}

/// The characters `operator>>` skips: space, '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Pops the next whitespace-delimited token off the front of `*text`; ""
/// once only whitespace is left. Every request is read through this one
/// tokenizer.
std::string_view NextToken(std::string_view* text) {
  size_t begin = 0;
  while (begin < text->size() && IsSpace((*text)[begin])) ++begin;
  size_t end = begin;
  while (end < text->size() && !IsSpace((*text)[end])) ++end;
  const std::string_view token = text->substr(begin, end - begin);
  text->remove_prefix(end);
  return token;
}

/// True iff nothing but whitespace is left. Every no-payload verb checks
/// this: `METRICS json garbage` or `SOLVE s extra` is a client framing
/// bug, and accepting it on some verbs taught clients nothing.
bool AtLineEnd(std::string_view text) { return NextToken(&text).empty(); }

/// Drops a leading '+', which `from_chars` does not read; false for "+-".
bool StripPlus(std::string_view* token) {
  if (token->empty() || token->front() != '+') return true;
  token->remove_prefix(1);
  return token->empty() || token->front() != '-';
}

/// Whole-token integer: an optional sign, then decimal digits, in range.
bool ParseInteger(std::string_view token, int64_t* value) {
  return StripPlus(&token) && ParseInt64(token, value);
}

/// Whole-token coordinate: an optional '+', then a `from_chars` double.
/// `from_chars` reports underflow like overflow; strtod (what `operator>>`
/// used) reads one as 0 and the other as inf, so it decides that rare
/// case. Non-finite values never reach the WAL: a persisted inf or nan
/// would poison every distance comparison and every recovery replay.
bool ParseCoordinate(std::string_view token, double* value) {
  if (!StripPlus(&token)) return false;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  if (ptr != end || ec == std::errc::invalid_argument) return false;
  if (ec == std::errc::result_out_of_range) {
    *value = std::strtod(std::string(token).c_str(), nullptr);
  }
  return std::isfinite(*value);
}

void AppendPart(std::string* out, std::string_view text) { out->append(text); }
void AppendPart(std::string* out, double value) { AppendGeneral(value, out); }
template <std::integral T>
void AppendPart(std::string* out, T value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends each part: text as is, integers in decimal, doubles as `<<`
/// prints them.
template <typename... Parts>
void Append(std::string* out, const Parts&... parts) {
  (AppendPart(out, parts), ...);
}

/// Appends the ERR reply for a failed `status`; true when it failed.
bool Failed(const Status& status, std::string* out) {
  if (status.ok()) return false;
  Append(out, "ERR ", status.ToString(), "\n");
  return true;
}

void ReplyStatus(const Status& status, std::string* out) {
  if (!Failed(status, out)) out->append("OK\n");
}

/// `OK div=<diversity> ids=<id>,...`: the head of both roles' SOLVE reply.
void AppendSolution(const Solution& solution, std::string* out) {
  Append(out, "OK div=", solution.diversity, " ids=");
  for (size_t i = 0; i < solution.points.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendPart(out, solution.points.IdAt(i));
  }
}

/// The arity check of every verb that takes only a session name: true
/// when the line ends there, else the ERR is appended.
bool SessionOnly(const RequestInfo& request, std::string* out) {
  if (AtLineEnd(request.args)) return true;
  Append(out, "ERR ", request.verb, " takes only a session name\n");
  return false;
}

/// Parses `<id> <group> <c0> <c1> ...` (the rest of an OBSERVE line, or an
/// OBSERVEB point line), appending the coordinates to `coords`. Returns ""
/// on success, else the reason: a malformed point fails its request whole
/// (the session re-validates the dimension and group before the WAL).
std::string_view ParsePointFields(std::string_view text, int64_t* id,
                                  int32_t* group,
                                  std::vector<double>* coords) {
  int64_t wide_group = 0;
  if (!ParseInteger(NextToken(&text), id) ||
      !ParseInteger(NextToken(&text), &wide_group) ||
      !std::in_range<int32_t>(wide_group)) {
    return "requires <id> <group> <coords...>";
  }
  *group = static_cast<int32_t>(wide_group);
  const size_t start = coords->size();
  for (std::string_view token = NextToken(&text); !token.empty();
       token = NextToken(&text)) {
    if (!ParseCoordinate(token, &coords->emplace_back())) {
      return "requires numeric coordinates";
    }
  }
  return coords->size() == start ? "requires numeric coordinates" : "";
}

/// OBSERVEB's body: parses the n announced point lines and ingests them as
/// one batch. A malformed line fails the whole batch (nothing is applied —
/// a batch is one request), but the remaining lines are still consumed so
/// the stream stays in command framing.
void ObserveBatch(SessionManager& sessions, const std::string& name,
                  int64_t n, LineSource& payload, std::string* out) {
  std::vector<StreamPoint> points;
  std::vector<size_t> starts;  // per-point start into `coords`
  std::vector<double> coords;
  std::string error;
  std::string_view point_line;
  for (int64_t i = 0; i < n; ++i) {
    if (!payload.NextLine(&point_line)) {
      error = "stream ended mid-batch";
      break;
    }
    if (!error.empty()) continue;  // draining after a bad line
    StreamPoint& point = points.emplace_back();
    starts.push_back(coords.size());
    const std::string_view reason =
        ParsePointFields(point_line, &point.id, &point.group, &coords);
    if (!reason.empty()) {
      error = "batch line " + std::to_string(i) + " " + std::string(reason);
    }
  }
  if (!error.empty()) {
    Append(out, "ERR OBSERVEB ", error, "\n");
    return;
  }
  // Spans are set only now: `coords` no longer reallocates.
  starts.push_back(coords.size());
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].coords = {coords.data() + starts[i], starts[i + 1] - starts[i]};
  }
  auto outcome = sessions.Ingest(name, points, /*as_batch=*/true);
  if (!Failed(outcome.status(), out)) {
    Append(out, "OK kept=", outcome->accepted, " dup=", outcome->duplicates,
           "\n");
  }
}

/// LineSource over a std::istream (the stdin transport), read into one
/// reused buffer.
class StreamLineSource final : public LineSource {
 public:
  explicit StreamLineSource(std::istream& in) : in_(in) {}
  bool NextLine(std::string_view* line) override {
    if (!std::getline(in_, line_)) return false;
    *line = line_;
    return true;
  }

 private:
  std::istream& in_;
  std::string line_;
};

}  // namespace

struct RequestDispatcher::ReplSource {
  explicit ReplSource(std::string dir) : source(std::move(dir)) {}
  std::mutex mu;  // serializes this session's R-verbs
  DirReplicationSource source;
};

void LineSource::Skip(int64_t lines) {
  std::string_view discard;
  for (int64_t i = 0; i < lines && NextLine(&discard); ++i) {
  }
}

bool StringLineSource::NextLine(std::string_view* line) {
  if (rest_.empty()) return false;
  const size_t nl = rest_.find('\n');
  *line = rest_.substr(0, nl);
  rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
  return true;
}

RequestDispatcher::RequestDispatcher(SessionManager* sessions,
                                     std::string root_dir)
    : sessions_(sessions), root_dir_(std::move(root_dir)) {}

RequestDispatcher::RequestDispatcher(ReplicaManager* replicas,
                                     std::string primary_root)
    : replicas_(replicas), root_dir_(std::move(primary_root)) {}

RequestDispatcher::~RequestDispatcher() = default;

RequestInfo RequestDispatcher::Classify(std::string_view line) {
  // Only what admission control needs is tokenized here: the verb, the
  // session and OBSERVEB's count. The rest stays in `args`.
  RequestInfo request;
  request.verb = NextToken(&line);
  if (request.verb != "LIST" && request.verb != "METRICS" &&
      request.verb != "QUIT") {
    request.session = NextToken(&line);
  }
  if (request.verb == "OBSERVEB" && !request.session.empty()) {
    // The count is the token's leading [+-]digits, as `operator>>` read
    // it, so the announced line count (the framing) never changes. What
    // follows the digits is left in `args`: `2junk` drains 2 lines, ERR.
    const std::string_view token = NextToken(&line);
    const size_t sign = token.starts_with('+') || token.starts_with('-');
    const size_t end =
        std::min(token.find_first_not_of("0123456789", sign), token.size());
    int64_t n = -1;
    request.has_count =
        end > sign && ParseInteger(token.substr(0, end), &n) && n >= 0;
    if (request.has_count) request.payload_lines = n;
    // `line` resumes right after the token.
    line = std::string_view(token.data() + end,
                            token.size() - end + line.size());
  }
  request.args = line;
  return request;
}

RequestOutcome RequestDispatcher::HandleRequest(std::string_view line,
                                                LineSource& payload,
                                                std::string* out) {
  return Execute(Classify(line), payload, out);
}

RequestOutcome RequestDispatcher::Execute(const RequestInfo& request,
                                          LineSource& payload,
                                          std::string* out,
                                          std::optional<FileRange>* body,
                                          bool defer_cold_solve) {
  const std::string_view verb = request.verb;
  if (verb.empty()) return RequestOutcome::kReply;  // blank line
  if (verb == "SOLVE" && !request.session.empty()) {
    // Counted where it is answered: a deferred SOLVE, by the `Execute`
    // that runs it later.
    const RequestOutcome outcome = Solve(request, out, defer_cold_solve);
    if (outcome == RequestOutcome::kReply) RequestsCounter().Inc();
    return outcome;
  }
  RequestsCounter().Inc();
  if (verb == "QUIT") {
    if (!AtLineEnd(request.args)) {
      out->append("ERR QUIT takes no arguments\n");
      return RequestOutcome::kReply;
    }
    // A follower holds nothing of its own to snapshot.
    ReplyStatus(sessions_ != nullptr ? sessions_->SnapshotAll() : Status::Ok(),
                out);
    return RequestOutcome::kQuit;
  }
  if (verb == "METRICS") {
    std::string_view args = request.args;
    const std::string_view mode = NextToken(&args);
    if (mode == "json" && AtLineEnd(args)) {
      Append(out, "OK ", obs::MetricsRegistry::Global().RenderJson(), "\n");
    } else if (mode.empty()) {
      Append(out, obs::MetricsRegistry::Global().RenderPrometheus(), "OK\n");
    } else {
      out->append("ERR METRICS takes no argument or 'json'\n");
    }
    return RequestOutcome::kReply;
  }
  if (verb == "LIST") {
    if (!AtLineEnd(request.args)) {
      out->append("ERR LIST takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK");
    for (const std::string& name : sessions_ != nullptr
                                       ? sessions_->SessionNames()
                                       : replicas_->SessionNames()) {
      Append(out, " ", name);
    }
    out->push_back('\n');
    return RequestOutcome::kReply;
  }
  if (follower() && (verb == "CREATE" || verb == "OBSERVE" ||
                     verb == "OBSERVEB" || verb == "SNAPSHOT" ||
                     verb == "RESTORE")) {
    // Keep the framing invariant even when rejecting: the client announced
    // its point lines and will send them — swallow them so they are not
    // misread as commands.
    payload.Skip(request.payload_lines);
    Append(out, "ERR read-only follower (this process serves --follow=",
           root_dir_, ")\n");
    return RequestOutcome::kReply;
  }
  if (request.session.empty()) {
    Append(out, "ERR ", verb, " requires a session name\n");
    return RequestOutcome::kReply;
  }
  const std::string name(request.session);
  if (!(follower() ? ExecuteFollower(request, name, out)
                   : ExecutePrimary(request, name, payload, out, body))) {
    Append(out, "ERR unknown command '", verb, "'\n");
  }
  return RequestOutcome::kReply;
}

RequestOutcome RequestDispatcher::Solve(const RequestInfo& request,
                                        std::string* out,
                                        bool defer_cold_solve) {
  // A malformed SOLVE is answered here, never deferred.
  if (!SessionOnly(request, out)) return RequestOutcome::kReply;
  const std::string name(request.session);
  if (sessions_ != nullptr) {
    auto solution = defer_cold_solve ? sessions_->SolveIfCached(name)
                                     : std::optional(sessions_->Solve(name));
    if (!solution.has_value()) return RequestOutcome::kDeferredSolve;
    if (Failed(solution->status(), out)) return RequestOutcome::kReply;
    AppendSolution(**solution, out);
    out->push_back('\n');
    return RequestOutcome::kReply;
  }
  auto solve = defer_cold_solve ? replicas_->SolveIfCached(name)
                                : std::optional(replicas_->Solve(name));
  if (!solve.has_value()) return RequestOutcome::kDeferredSolve;
  if (Failed(solve->status(), out)) return RequestOutcome::kReply;
  const ReplicaManager::ReplicaSolve& answer = **solve;
  AppendSolution(answer.solution, out);
  Append(out, " version=", answer.state_version,
         " applied=", answer.applied_seq, " lag=", answer.lag,
         " stale=", answer.stale ? 1 : 0, "\n");
  return RequestOutcome::kReply;
}

bool RequestDispatcher::ExecutePrimary(const RequestInfo& request,
                                       const std::string& name,
                                       LineSource& payload, std::string* out,
                                       std::optional<FileRange>* body) {
  SessionManager& sessions = *sessions_;
  const std::string_view verb = request.verb;
  if (verb == "CREATE") {
    ReplyStatus(sessions.CreateSession(name, std::string(Trim(request.args))),
                out);
  } else if (verb == "OBSERVE") {
    int64_t id = -1;
    int32_t group = 0;
    std::vector<double> coords;
    const std::string_view error =
        ParsePointFields(request.args, &id, &group, &coords);
    if (!error.empty()) {
      Append(out, "ERR OBSERVE ", error, "\n");
      return true;
    }
    const StreamPoint point{id, group, coords};
    auto outcome = sessions.Ingest(name, {&point, 1}, /*as_batch=*/false);
    if (!Failed(outcome.status(), out)) {
      out->append(outcome->duplicates > 0 ? "OK dup=1\n" : "OK\n");
    }
  } else if (verb == "OBSERVEB") {
    if (!request.has_count) {
      out->append("ERR OBSERVEB requires <name> <n>\n");
    } else if (!AtLineEnd(request.args)) {
      // The count DID parse, so the client sent n point lines — drain
      // them before ERRing or they'd be misread as commands.
      payload.Skip(request.payload_lines);
      out->append("ERR OBSERVEB takes nothing after <n>\n");
    } else {
      ObserveBatch(sessions, name, request.payload_lines, payload, out);
    }
  } else if (verb == "RMANIFEST" || verb == "RFETCHSNAP" ||
             verb == "RFETCHWAL") {
    HandleReplicationVerb(verb, name, request.args, out, body);
  } else if (verb == "REPLICA" || verb == "LAG") {
    Append(out, "ERR ", verb,
           " is a follower verb (start with --follow=DIR)\n");
  } else if (verb == "SNAPSHOT") {
    if (SessionOnly(request, out)) ReplyStatus(sessions.Snapshot(name), out);
  } else if (verb == "RESTORE") {
    // Crash drill: forget the in-memory sink, then recover it from the
    // newest snapshot + WAL tail (the next touch triggers the reload).
    if (!SessionOnly(request, out) ||
        Failed(sessions.DropResident(name), out)) {
      return true;
    }
    auto stats = sessions.Stats(name);
    if (!Failed(stats.status(), out)) {
      Append(out, "OK observed=", stats->observed, "\n");
    }
  } else if (verb == "STATS") {
    if (!SessionOnly(request, out)) return true;
    auto stats = sessions.Stats(name);
    if (Failed(stats.status(), out)) return true;
    const SessionManager::SessionStats& s = *stats;
    Append(out, "OK observed=", s.observed, " kept=", s.kept, " stored=",
           s.stored, " snapshot_seq=", s.snapshot_seq, " version=",
           s.state_version, " solve_hits=", s.solve_hits, " solve_misses=",
           s.solve_misses, " solve_p50_cached_ms=", s.solve_p50_cached_ms,
           " solve_p99_cached_ms=", s.solve_p99_cached_ms,
           " solve_p50_cold_ms=", s.solve_p50_cold_ms, " solve_p99_cold_ms=",
           s.solve_p99_cold_ms, " snapshots=", s.snapshots_taken,
           " restores=", s.restores, " replayed=", s.replayed_records,
           " dedup=", s.dedup ? "on" : "off", " duplicates_rejected=",
           s.duplicates_rejected, " filter_bytes=", s.filter_bytes,
           " filter_grows=", s.filter_grows, " kernel=", s.kernel,
           " spec=\"", s.spec, "\"\n");
  } else {
    return false;
  }
  return true;
}

bool RequestDispatcher::ExecuteFollower(const RequestInfo& request,
                                        const std::string& name,
                                        std::string* out) {
  const std::string_view verb = request.verb;
  if (verb != "STATS" && verb != "LAG" && verb != "REPLICA") return false;
  if (!SessionOnly(request, out)) return true;
  int64_t just_applied = -1;
  if (verb == "REPLICA") {
    auto applied = replicas_->Poll(name);
    if (Failed(applied.status(), out)) return true;
    just_applied = *applied;
  }
  auto stats = verb == "LAG" ? replicas_->Lag(name) : replicas_->Stats(name);
  if (Failed(stats.status(), out)) return true;
  const ReplicaSession::ReplicaStats& s = *stats;
  out->append("OK");
  if (just_applied >= 0) Append(out, " applied_records=", just_applied);
  Append(out, " applied=", s.applied_seq, " primary=", s.primary_seq,
         " lag=", s.lag, " stale=", s.stale ? 1 : 0, " version=",
         s.state_version, " resyncs=", s.resyncs, " segments_fetched=",
         s.segments_fetched, " snapshots_loaded=", s.snapshots_loaded,
         " dedup=", s.dedup ? "on" : "off", " duplicates_rejected=",
         s.duplicates_rejected, " filter_bytes=", s.filter_bytes,
         " solve_hits=", s.solve.hits, " solve_misses=", s.solve.misses,
         "\n");
  return true;
}

void RequestDispatcher::HandleReplicationVerb(
    std::string_view verb, const std::string& name, std::string_view args,
    std::string* out, std::optional<FileRange>* body) {
  if (!IsValidSessionName(name)) {
    out->append("ERR invalid session name\n");
    return;
  }
  int64_t seq = 0;
  uint64_t offset = 0;
  if (verb == "RFETCHSNAP") {
    if (!ParseInteger(NextToken(&args), &seq) || !AtLineEnd(args)) {
      out->append("ERR RFETCHSNAP requires <name> <seq>\n");
      return;
    }
  } else if (verb == "RFETCHWAL") {
    const bool has_seq = ParseInteger(NextToken(&args), &seq);
    const std::string_view offset_text = NextToken(&args);
    if (!has_seq || !AtLineEnd(args) ||
        (!offset_text.empty() && !ParseUint64(offset_text, &offset))) {
      out->append("ERR RFETCHWAL requires <name> <first_seq> [<offset>]\n");
      return;
    }
  } else if (!AtLineEnd(args)) {
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
        Append(out, "ERR no session named '", name, "'\n");
        return;
      }
      it = repl_sources_.emplace(name, std::make_shared<ReplSource>(dir))
               .first;
    }
    entry = it->second;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  DirReplicationSource& source = entry->source;
  if (verb == "RMANIFEST") {
    auto manifest = source.GetManifest();
    if (Failed(manifest.status(), out)) return;
    Append(out, "OK primary_seq=", manifest->primary_seq,
           " version=", manifest->primary_version,
           " advert_seq=", manifest->advert_seq, " snapshots=");
    if (manifest->snapshots.empty()) out->push_back('-');
    for (size_t i = 0; i < manifest->snapshots.size(); ++i) {
      const ReplicaSnapshotInfo& s = manifest->snapshots[i];
      if (i > 0) out->push_back(',');
      Append(out, s.seq, ":", s.bytes, ":", s.checksum);
    }
    out->append(" segments=");
    if (manifest->segments.empty()) out->push_back('-');
    for (size_t i = 0; i < manifest->segments.size(); ++i) {
      const WalSegmentInfo& s = manifest->segments[i];
      if (i > 0) out->push_back(',');
      Append(out, s.first_seq, ":", s.bytes, ":", s.checksum);
    }
    // The spec goes last and runs to end of line: it contains spaces.
    Append(out, " spec=", manifest->spec, "\n");
    return;
  }
  // Binary reply: a one-line header announcing the byte count, the raw
  // bytes, then a newline to restore line discipline. Over TCP the whole
  // reply is one length-delimited frame; over stdin the client reads
  // exactly `bytes=` bytes after the header line.
  auto range = verb == "RFETCHSNAP" ? source.OpenSnapshot(seq)
                                    : source.OpenWalSegment(seq, offset);
  if (Failed(range.status(), out)) return;
  const size_t start = out->size();
  Append(out, "OK bytes=", range->length, "\n");
  // Checked before a byte is read: a frame reader refuses a larger reply
  // whole, and stdin answers the same so the transports stay identical.
  const uint64_t reply_bytes = out->size() - start + range->length + 1;
  if (reply_bytes > kMaxFramePayloadBytes) {
    out->resize(start);
    Append(out, "ERR ", verb, " reply of ", reply_bytes,
           " bytes exceeds the ", kMaxFramePayloadBytes,
           "-byte frame limit\n");
    return;
  }
  if (body != nullptr) {
    body->emplace(std::move(range.value()));
    return;
  }
  // Sized up front for the bytes and the newline: growing by the last
  // newline would double a multi-MiB buffer.
  out->reserve(out->size() + range->length + 1);
  if (Status s = AppendFileRange(*range, out); !s.ok()) {
    out->resize(start);
    Failed(s, out);
    return;
  }
  out->push_back('\n');
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
