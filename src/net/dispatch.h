#ifndef FDM_NET_DISPATCH_H_
#define FDM_NET_DISPATCH_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace fdm {
class SessionManager;
class ReplicaManager;
}  // namespace fdm

namespace fdm::net {

/// Where a request's announced payload lines come from (OBSERVEB's n
/// point lines). The stdin transport pulls further lines from the input
/// stream; the TCP transport pulls the remaining lines of the request
/// frame. Running dry mid-batch is the transport-independent "stream
/// ended mid-batch" error.
class LineSource {
 public:
  virtual ~LineSource() = default;
  /// Next payload line without its '\n'; false at end of input.
  virtual bool NextLine(std::string* line) = 0;
};

/// LineSource over an in-memory '\n'-separated text block (TCP frame
/// remainders, tests). A trailing '\n' is optional; an empty block has no
/// lines.
class StringLineSource final : public LineSource {
 public:
  explicit StringLineSource(std::string_view text) : rest_(text) {}
  bool NextLine(std::string* line) override;

  /// Unconsumed text (the transport resumes parsing requests here).
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/// LineSource over a std::istream (the stdin transport).
class StreamLineSource final : public LineSource {
 public:
  explicit StreamLineSource(std::istream& in) : in_(in) {}
  bool NextLine(std::string* line) override;

 private:
  std::istream& in_;
};

/// What the transport should do after writing the reply.
enum class RequestOutcome {
  kReply,  // keep the conversation going
  kQuit,   // client said QUIT: stdin loop exits, TCP closes the connection
};

/// Transport-independent classification of one request, produced without
/// executing it — the TCP front end's admission control runs on this.
struct RequestInfo {
  std::string verb;
  /// Session the request names ("" for LIST/METRICS/QUIT/blank/garbage).
  std::string session;
  /// True for a SOLVE that would miss the solve cache (or touch a
  /// spilled/unbootstrapped session): the ~750x-slower path admission may
  /// have to shed. Advisory — state can move before execution.
  bool cold_solve = false;
  /// Payload lines the request announces (OBSERVEB's n): a transport that
  /// sheds the request must still drain them to stay in framing.
  int64_t payload_lines = 0;
};

/// The request-dispatch core shared by the stdin and TCP transports, for
/// both serving roles (primary over a `SessionManager`, read-only
/// follower over a `ReplicaManager`). One instance is shared by every
/// transport thread; all methods are thread-safe.
///
/// `HandleRequest` consumes exactly one request — the command line plus
/// any payload lines it announces, pulled from `payload` — and appends
/// the full reply text to `*out`. Every reply path consumes precisely the
/// request's own input (malformed batches drain their announced lines),
/// so pipelined clients stay in sync across any ERR; and the reply bytes
/// are transport-independent, which is what the conformance suite pins
/// down as "stdin and TCP replies are byte-identical".
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
/// active-segment scan position persist across polls; a fetched range is
/// read straight into `*out` after its header line and not kept. A
/// follower sees exactly what a shared-filesystem follower would: the
/// durable prefix.
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

  RequestOutcome HandleRequest(const std::string& line, LineSource& payload,
                               std::string* out);

  RequestInfo Classify(const std::string& line) const;

  bool follower() const { return replicas_ != nullptr; }

 private:
  RequestOutcome HandlePrimary(const std::string& command,
                               std::istringstream& in, LineSource& payload,
                               std::string* out);
  RequestOutcome HandleFollower(const std::string& command,
                                std::istringstream& in, LineSource& payload,
                                std::string* out);
  /// METRICS handling shared by both roles; false when `command` differs.
  bool HandleMetricsVerb(const std::string& command, std::istringstream& in,
                         std::string* out);
  void HandleReplicationVerb(const std::string& command,
                             const std::string& name, std::istringstream& in,
                             std::string* out);

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
