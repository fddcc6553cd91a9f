#ifndef FDM_NET_TCP_SERVER_H_
#define FDM_NET_TCP_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/admission.h"
#include "util/status.h"

namespace fdm::net {

class RequestDispatcher;

struct TcpServerOptions {
  /// Bind address. Loopback by default: exposing the protocol beyond the
  /// host is an operator decision, not a default.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is reported by `port()`).
  int port = 0;
  /// Event-loop threads. Connections are assigned round-robin at accept
  /// and never migrate, so per-connection state is single-threaded.
  int event_threads = 2;
  /// Workers executing admitted cache-missing SOLVEs off the event loops
  /// (a cold solve is ~750x a cached one — running it on the loop would
  /// stall every connection on that loop behind it).
  int solve_workers = 2;
  AdmissionOptions admission;
};

/// Epoll-based TCP front end over a `RequestDispatcher`.
///
/// Wire format: length-delimited frames (net/frame.h) whose payload is
/// the same text the stdin transport speaks. One frame may carry several
/// complete requests (pipelining); a request — its command line plus any
/// announced payload lines — may NOT span frames (the dispatcher answers
/// exactly as if stdin ended mid-request). Each request produces exactly
/// one response frame carrying the dispatcher's reply bytes, identical to
/// what the stdin transport would have written, built in place in the
/// connection's output buffer; blank lines produce no response frame. A
/// replication fetch's range is the exception: it is `sendfile`d from
/// the open file after its header line, so the server holds none of it; a
/// file that ends before the announced length closes the connection. A
/// malformed frame header (oversized length) is a protocol error: the
/// connection is closed.
///
/// Reads are paced to requests: the loop runs what arrived between 64 KiB
/// reads, and a connection waiting on an offloaded SOLVE or a range in
/// flight stops reading once it holds 64 KiB unread.
///
/// An event loop answers a SOLVE only from the solve cache; any other
/// well-formed SOLVE (a miss, a spilled or unbootstrapped session) comes
/// back deferred, so no loop ever computes, reloads or bootstraps.
///
/// Overload behavior (see net/admission.h): a request naming a session
/// over its token-bucket rate, or a deferred SOLVE beyond the global
/// cold-solve capacity, is answered immediately with a complete
/// `ERR shed ...` response frame (announced payload lines are drained, so
/// the pipeline stays in framing) instead of queueing. Admitted cold
/// SOLVEs run on the solve-worker pool; while one (or a fetch range) is
/// in flight its connection is "busy" — later pipelined requests on that
/// connection wait (per-connection reply order is FIFO), other
/// connections proceed.
///
/// QUIT over TCP replies (snapshotting on a primary, exactly like stdin)
/// and then closes that connection; the server keeps serving others.
class TcpServer {
 public:
  /// Binds, listens, and starts the event-loop and solve-worker threads.
  /// `dispatcher` must outlive the server.
  static Result<std::unique_ptr<TcpServer>> Start(
      RequestDispatcher* dispatcher, TcpServerOptions options);

  ~TcpServer();  // Stop()s

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (useful with `options.port == 0`).
  int port() const;

  /// Shed counters, for tests and the serving CLI's exit report. The
  /// non-const overload lets an operator (or a test) claim cold-solve
  /// slots externally — e.g. to drain the server before maintenance.
  const AdmissionController& admission() const;
  AdmissionController& admission();

  /// Closes the listener and every connection, joins all threads.
  /// Idempotent.
  void Stop();

 private:
  struct Impl;
  explicit TcpServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace fdm::net

#endif  // FDM_NET_TCP_SERVER_H_
