#ifndef FDM_NET_DISPATCH_H_
#define FDM_NET_DISPATCH_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace fdm {
class SessionManager;
class ReplicaManager;
struct FileRange;
}  // namespace fdm

namespace fdm::net {

/// Where a request's announced payload lines come from (OBSERVEB's n
/// point lines): further stdin lines, or the rest of the TCP request
/// frame. Running dry mid-batch is the transport-independent "stream
/// ended mid-batch" error.
class LineSource {
 public:
  virtual ~LineSource() = default;
  /// Next payload line without its '\n', as a view valid until the next
  /// call; false at end of input.
  virtual bool NextLine(std::string_view* line) = 0;
  /// Consumes up to `lines` lines: a rejected or shed batch still drains
  /// its announced lines, so they are not misread as commands.
  void Skip(int64_t lines);
};

/// LineSource over an in-memory '\n'-separated text block (TCP frame
/// remainders, tests): hands out views into the block, copying nothing. A
/// trailing '\n' is optional; an empty block has no lines.
class StringLineSource final : public LineSource {
 public:
  explicit StringLineSource(std::string_view text) : rest_(text) {}
  bool NextLine(std::string_view* line) override;

  /// Unconsumed text (the transport resumes parsing requests here).
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/// What the transport should do after writing the reply.
enum class RequestOutcome {
  kReply,  // keep the conversation going
  kQuit,   // client said QUIT: stdin loop exits, TCP closes the connection
  /// A SOLVE `Execute(..., defer_cold_solve)` did not answer from the
  /// cache, appending and counting nothing: the caller runs it elsewhere.
  kDeferredSolve,
};

/// One request line, read once: `Classify` reads it for the TCP front
/// end's admission control and `Execute` runs what it read. The views
/// point into the line, which must outlive them.
///
/// Tokens are split on the characters `operator>>` skips: space, '\t',
/// '\n', '\v', '\f' and '\r' (so CRLF clients work). A number is a token
/// that parses whole: an integer is an optional sign then decimal digits,
/// in range; a coordinate is an optional '+' then a finite `from_chars`
/// double, an underflow reading as 0 or the denormal and an overflow,
/// `inf` or `nan` being no number. `1.2.3`, `5-3`, `1.5` as a group or a
/// trailing `1e` fail the request with ERR.
struct RequestInfo {
  std::string_view verb;  // "" for a blank line
  /// Session the request names ("" for LIST/METRICS/QUIT/blank/garbage).
  std::string_view session;
  /// Payload lines the request announces (OBSERVEB's n, the count token's
  /// leading `[+-]digits`): a transport that sheds the request must still
  /// drain them to stay in framing. `OBSERVEB s 2junk` drains 2, then ERRs.
  int64_t payload_lines = 0;
  /// OBSERVEB: false when the count is missing, negative or has no digits.
  bool has_count = false;
  /// The rest of the line after the tokens above, not yet read.
  std::string_view args;
};

/// The request-dispatch core shared by the stdin and TCP transports, for
/// both serving roles (primary over a `SessionManager`, read-only
/// follower over a `ReplicaManager`). One instance is shared by every
/// transport thread; all methods are thread-safe. The verbs both roles
/// serve (QUIT, METRICS, LIST, SOLVE) and the session-name and
/// unknown-verb replies have one handler each.
///
/// `HandleRequest` (and `Execute`, for a request `Classify` read)
/// consumes exactly one request — the command line plus any payload lines
/// it announces, pulled from `payload` — and appends the full reply text
/// to `*out`. Every reply path consumes precisely the request's own input
/// (malformed batches drain their announced lines), so pipelined clients
/// stay in sync across any ERR; and the reply bytes are
/// transport-independent, which is what the conformance suite pins down
/// as "stdin and TCP replies are byte-identical".
///
/// Primary mode additionally serves the replication transport verbs that
/// back `SocketReplicationSource` (each maps to one request/response
/// frame over TCP):
///
///   RMANIFEST <name>        one-line manifest: primary position/version,
///                           snapshot and WAL-segment lists, sink spec
///   RFETCHSNAP <name> <seq> `OK bytes=<n>` + n raw snapshot bytes
///   RFETCHWAL <name> <first_seq> [<offset>]
///                           same, for one WAL segment from byte `offset`
///                           (default 0, the whole segment) to its end
///
/// They read the session's on-disk state through a per-session
/// `DirReplicationSource`, whose sealed-segment checksums and
/// active-segment scan position persist across polls. A fetch opens the
/// file and checks the range before it reads a byte: a reply that would
/// not fit one frame (`kMaxFramePayloadBytes`, header line and newline
/// included) is answered `ERR` on both transports. Otherwise the range is
/// read straight into `*out` after its header line, or, when the caller
/// takes it (`Execute`'s `body`), left in the file for the transport to
/// send; either way the dispatcher keeps none of it. A follower sees
/// exactly what a shared-filesystem follower would: the durable prefix.
class RequestDispatcher {
 public:
  /// Primary serving mode. `root_dir` is the session-manager root (the
  /// replication verbs resolve `<root_dir>/<name>/`).
  RequestDispatcher(SessionManager* sessions, std::string root_dir);

  /// Follower mode. `primary_root` only labels read-only rejections.
  RequestDispatcher(ReplicaManager* replicas, std::string primary_root);

  RequestDispatcher(const RequestDispatcher&) = delete;
  RequestDispatcher& operator=(const RequestDispatcher&) = delete;
  ~RequestDispatcher();

  /// `Execute(Classify(line))`, a cold SOLVE included.
  RequestOutcome HandleRequest(std::string_view line, LineSource& payload,
                               std::string* out);
  /// Reads `line` without executing it: a parse, no lookup.
  static RequestInfo Classify(std::string_view line);
  /// Runs a request `Classify` read, counted in `fdm_net_requests_total`
  /// unless blank or deferred. With `body` set, a successful RFETCHSNAP or
  /// RFETCHWAL appends only its header line and puts the open range in
  /// `*body`: the reply is then the header, the range's bytes and a '\n',
  /// which the caller sends (the TCP server, from the file). Without it
  /// every reply byte is appended to `*out`. With `defer_cold_solve`, a
  /// well-formed SOLVE is answered only from the solve cache, in one
  /// lookup under one shared lock; a miss or an unknown, spilled or
  /// unbootstrapped session returns `kDeferredSolve`, nothing loaded.
  RequestOutcome Execute(const RequestInfo& request, LineSource& payload,
                         std::string* out,
                         std::optional<FileRange>* body = nullptr,
                         bool defer_cold_solve = false);

  bool follower() const { return replicas_ != nullptr; }

 private:
  RequestOutcome Solve(const RequestInfo& request, std::string* out,
                       bool defer_cold_solve);
  /// The verbs only one role serves; false when `request.verb` is none.
  bool ExecutePrimary(const RequestInfo& request, const std::string& name,
                      LineSource& payload, std::string* out,
                      std::optional<FileRange>* body);
  bool ExecuteFollower(const RequestInfo& request, const std::string& name,
                       std::string* out);
  void HandleReplicationVerb(std::string_view verb, const std::string& name,
                             std::string_view args, std::string* out,
                             std::optional<FileRange>* body);

  SessionManager* const sessions_ = nullptr;   // primary mode
  ReplicaManager* const replicas_ = nullptr;   // follower mode
  const std::string root_dir_;

  /// Per-session replication sources behind the R-verbs, kept so sealed
  /// WAL-segment checksums are computed once per segment and each byte
  /// appended to the active segment is scanned once, not once per follower
  /// poll. `DirReplicationSource` is not thread-safe, so each entry has
  /// its own lock; `repl_mu_` guards only the map (lookup and insert), so
  /// one session's fetch never waits on another's.
  struct ReplSource;
  std::mutex repl_mu_;
  std::map<std::string, std::shared_ptr<ReplSource>> repl_sources_;
};

/// The stdin transport: reads '\n'-separated requests from `in`, writes
/// each reply to `out` (flushing per request so the protocol works over a
/// pipe), stops at EOF or QUIT. Blank lines produce no reply. Returns 0.
int ServeLines(RequestDispatcher& dispatcher, std::istream& in,
               std::ostream& out);

}  // namespace fdm::net

#endif  // FDM_NET_DISPATCH_H_
