// fdm_serve — serving front end over the durable session manager, for
// demos, soak tests, scripts, and (with --listen) networked clients.
//
//   ./fdm_serve [--root=DIR] [--snapshot_every=N] [--max_resident=N]
//               [--background_ms=N] [--threads=N]
//               [--metrics-dump=PATH[,PERIOD_MS]]
//               [--listen=PORT [--listen_host=ADDR] [--net_threads=N]
//                [--solve_workers=N] [--rate=R [--burst=B]] [--cold_cap=N]]
//   ./fdm_serve --follow=DIR|tcp://HOST:PORT [--poll_ms=N] [...]
//
// `--threads=N` sets the process-wide width of every fan-out in both
// modes (core/parallelism.h): batched ingest over rungs and shards, cold
// SOLVE post-processing, and the snapshot sweep. 1 = sequential (the
// default), 0 = all hardware threads, N = at most N threads on the one
// shared pool. Replies are byte-identical at every width.
//
// Every numeric flag must parse (util/argparse.h): a non-number, trailing
// characters, a value out of range, or a negative count (`--threads`,
// `--snapshot_every`, `--max_resident`, `--net_threads`, `--cold_cap`, ...)
// is a usage error: a usage line on stderr and exit 1, before any session
// or socket is opened.
//
// Reads commands from stdin, one per line; writes one `OK ...` or
// `ERR <message>` line per command to stdout:
//
//   CREATE <name> <sink spec...>    create a session (service/sink_spec.h)
//   OBSERVE <name> <id> <group> <c0> <c1> ...   ingest one point; replies
//                                   `OK dup=1` when a dedup=on session
//                                   rejected it as an exact duplicate
//   OBSERVEB <name> <n>             batched ingest: the next n input lines
//                                   are points (`<id> <group> <c0> ...`),
//                                   applied through one ObserveBatch call
//                                   (the dedup fast path and the batch
//                                   kernels), or rejected whole when one
//                                   line fails; replies `OK kept=K dup=D`
//   SOLVE <name>                    current solution (div + ids); answered
//                                   from the per-session solve cache under
//                                   a shared lock when state is unchanged
//   SNAPSHOT <name>                 force a durable snapshot
//   RESTORE <name>                  drop in-memory state, recover from disk
//   STATS <name>                    observed/kept/stored/snapshot position,
//                                   sink state version, solve-cache
//                                   hits/misses, cached & cold solve-latency
//                                   percentiles, snapshot/restore/replay
//                                   counters, active distance-kernel target
//   METRICS [json]                  process-wide metrics registry: the bare
//                                   verb prints the Prometheus text
//                                   exposition followed by `OK`; `METRICS
//                                   json` replies `OK {...}` on one line
//   LIST                            all known sessions
//   QUIT                            snapshot everything and exit
//
// The protocol core lives in src/net/dispatch.h; this file only wires
// transports around it. Grammar: tokens are separated by space, '\t',
// '\v', '\f' or '\r' (CRLF clients work), and a number is a token that
// parses whole. Ids, groups and counts are an optional sign then decimal
// digits, in range; a coordinate is an optional '+' then a decimal double
// (`.5`, `5.`, `1E5`; an underflow reads as 0 or the denormal). A token
// like `1.2.3`, `5-3`, `2junk`, `1.5` as a group, `1e`, `-`, `.`, `+`, an
// overflow, `inf` or `nan` fails its request with ERR. Every no-payload
// verb rejects trailing tokens, and OBSERVE/OBSERVEB reject, before
// anything reaches the WAL, a malformed point, a dimension other than the
// spec's `dim`, or (algo=sfdm1|sfdm2) a group outside 0..quotas-1; a
// rejected OBSERVEB still consumes its n announced lines.
//
// `--listen=PORT` additionally serves the same protocol over TCP
// (length-delimited frames whose payload is the line-protocol text; see
// src/net/tcp_server.h), with admission control: `--rate`/`--burst` cap
// each session's requests/second across all connections, `--cold_cap`
// bounds concurrently admitted cache-missing SOLVEs. Over-limit requests
// are answered immediately with `ERR shed ...` instead of queueing. The
// primary also serves the replication verbs RMANIFEST / RFETCHSNAP /
// RFETCHWAL, so a follower started with `--follow=tcp://HOST:PORT` tails
// it over the network (src/replica/socket_source.h). stdin stays live in
// every mode — QUIT on stdin shuts the whole process down cleanly.
//
// `--metrics-dump=PATH[,PERIOD_MS]` writes the Prometheus rendering to
// PATH atomically (tmp + rename): every PERIOD_MS milliseconds when a
// period is given, and always once more at clean exit. With no period the
// file is written only at exit.
//
// Follower mode (`--follow=<primary root or tcp://...>`) serves the same
// SOLVE / STATS / LIST read path from replicas that bootstrap off the
// primary's snapshots and tail its WAL segments (src/replica/). Write
// verbs are rejected — a follower is read-only by construction — and two
// verbs are follower-only:
//
//   LAG <name>          refresh the manifest; report replication lag
//   REPLICA <name>      catch up now; report records applied + stats
//
// Follower SOLVE replies carry `version=`, `applied=`, `lag=`, `stale=` so
// a stale answer is flagged, never silently wrong. A background poll
// thread (`--poll_ms`, default 200) keeps followers caught up and
// re-syncs them when the primary prunes segments.
//
// Example session:
//
//   CREATE demo algo=sfdm2 dim=2 quotas=2,2 dmin=0.1 dmax=300
//   OBSERVE demo 0 0 1.5 2.5
//   ...
//   SOLVE demo

#include <climits>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "core/parallelism.h"
#include "net/dispatch.h"
#include "net/tcp_server.h"
#include "obs/metrics_dump.h"
#include "replica/replica_manager.h"
#include "service/session_manager.h"
#include "util/argparse.h"
#include "util/check.h"

namespace fdm {
namespace {

/// `--name` as a count held in an `int` (usage error unless in
/// [0, INT_MAX]).
int IntCount(const ArgParser& args, const std::string& name, int def) {
  return static_cast<int>(args.GetInt(name, def, 0, INT_MAX));
}

/// `--name` as a count held in a `size_t` (usage error if negative).
size_t SizeCount(const ArgParser& args, const std::string& name) {
  return static_cast<size_t>(args.GetInt(name, 0, 0));
}

/// Builds the dumper from `--metrics-dump`, or reports the usage error.
/// `*ok=false` means the process should exit 1.
std::unique_ptr<obs::MetricsDumper> DumperOrUsageError(const ArgParser& args,
                                                       bool* ok) {
  auto dumper = obs::MakeMetricsDumper(args.GetString("metrics-dump", ""));
  if (!dumper.ok()) {
    std::fprintf(stderr,
                 "fdm_serve: %s\nusage: --metrics-dump=PATH[,PERIOD_MS]\n",
                 dumper.status().ToString().c_str());
    *ok = false;
    return nullptr;
  }
  *ok = true;
  return std::move(dumper.value());
}

/// The TCP front end's flags, read before anything starts so that a bad
/// value exits 1 with nothing created.
net::TcpServerOptions ListenOptions(const ArgParser& args) {
  net::TcpServerOptions options;
  options.port = static_cast<int>(args.GetInt("listen", 0, 0, 65535));
  options.host = args.GetString("listen_host", "127.0.0.1");
  options.event_threads = IntCount(args, "net_threads", 2);
  options.solve_workers = IntCount(args, "solve_workers", 2);
  options.admission.session_rate = args.GetDouble("rate", 0.0);
  options.admission.session_burst = args.GetDouble("burst", 0.0);
  options.admission.cold_solve_cap = SizeCount(args, "cold_cap");
  return options;
}

/// Starts the TCP front end when `--listen` was passed. `*ok=false` means
/// startup failed and the process should exit 1.
std::unique_ptr<net::TcpServer> ListenOrUsageError(
    const ArgParser& args, net::TcpServerOptions options,
    net::RequestDispatcher& dispatcher, bool* ok) {
  *ok = true;
  if (!args.Has("listen")) return nullptr;
  auto server = net::TcpServer::Start(&dispatcher, std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "fdm_serve: %s\n",
                 server.status().ToString().c_str());
    *ok = false;
    return nullptr;
  }
  return std::move(server.value());
}

int FollowerMain(const ArgParser& args, net::TcpServerOptions listen) {
  ReplicaManagerOptions options;
  options.primary_root = args.GetString("follow", "");
  options.poll_ms = IntCount(args, "poll_ms", 200);
  auto manager = ReplicaManager::Create(options);
  if (!manager.ok()) {
    std::fprintf(stderr, "fdm_serve: %s\n",
                 manager.status().ToString().c_str());
    return 1;
  }
  bool ok = false;
  const auto dumper = DumperOrUsageError(args, &ok);
  if (!ok) return 1;
  net::RequestDispatcher dispatcher(manager->get(), options.primary_root);
  const auto server =
      ListenOrUsageError(args, std::move(listen), dispatcher, &ok);
  if (!ok) return 1;
  std::cout << "READY follow=" << options.primary_root
            << " poll_ms=" << options.poll_ms;
  if (server != nullptr) std::cout << " listen=" << server->port();
  std::cout << "\n";
  return net::ServeLines(dispatcher, std::cin, std::cout);
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const Status width = Parallelism::SetThreads(IntCount(args, "threads", 1));
  FDM_CHECK(width.ok());  // every width in [0, INT_MAX] is valid
  net::TcpServerOptions listen = ListenOptions(args);
  if (args.Has("follow")) return FollowerMain(args, std::move(listen));
  SessionManagerOptions options;
  options.root_dir = args.GetString("root", "fdm_sessions");
  options.session.snapshot_every = SizeCount(args, "snapshot_every");
  options.max_resident = SizeCount(args, "max_resident");
  options.background_snapshot_ms = IntCount(args, "background_ms", 0);

  auto manager = SessionManager::Create(options);
  if (!manager.ok()) {
    std::fprintf(stderr, "fdm_serve: %s\n",
                 manager.status().ToString().c_str());
    return 1;
  }
  bool ok = false;
  const auto dumper = DumperOrUsageError(args, &ok);
  if (!ok) return 1;
  net::RequestDispatcher dispatcher(manager->get(), options.root_dir);
  const auto server =
      ListenOrUsageError(args, std::move(listen), dispatcher, &ok);
  if (!ok) return 1;
  std::cout << "READY root=" << options.root_dir;
  if (server != nullptr) std::cout << " listen=" << server->port();
  std::cout << "\n";
  return net::ServeLines(dispatcher, std::cin, std::cout);
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
