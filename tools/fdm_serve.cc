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
// shared pool. Replies are byte-identical at every width; a negative N is
// a usage error.
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
//                                   kernels); replies `OK kept=K dup=D`
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
// transports around it. Every no-payload verb rejects trailing garbage,
// and OBSERVE/OBSERVEB reject non-finite (inf/nan) coordinates before
// anything reaches the WAL.
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

namespace fdm {
namespace {

/// Applies `--threads`, or reports the usage error. Returns false when
/// the process should exit 1.
bool SetWidthOrUsageError(const ArgParser& args) {
  const Status status =
      Parallelism::SetThreads(static_cast<int>(args.GetInt("threads", 1)));
  if (!status.ok()) {
    std::fprintf(stderr, "fdm_serve: %s\nusage: --threads=N (N >= 0)\n",
                 status.ToString().c_str());
    return false;
  }
  return true;
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

/// Starts the TCP front end when `--listen` was passed. `*ok=false` means
/// startup failed and the process should exit 1.
std::unique_ptr<net::TcpServer> ListenOrUsageError(
    const ArgParser& args, net::RequestDispatcher& dispatcher, bool* ok) {
  *ok = true;
  if (!args.Has("listen")) return nullptr;
  net::TcpServerOptions options;
  options.port = static_cast<int>(args.GetInt("listen", 0));
  options.host = args.GetString("listen_host", "127.0.0.1");
  options.event_threads = static_cast<int>(args.GetInt("net_threads", 2));
  options.solve_workers = static_cast<int>(args.GetInt("solve_workers", 2));
  options.admission.session_rate = args.GetDouble("rate", 0.0);
  options.admission.session_burst = args.GetDouble("burst", 0.0);
  options.admission.cold_solve_cap =
      static_cast<size_t>(args.GetInt("cold_cap", 0));
  auto server = net::TcpServer::Start(&dispatcher, std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "fdm_serve: %s\n",
                 server.status().ToString().c_str());
    *ok = false;
    return nullptr;
  }
  return std::move(server.value());
}

int FollowerMain(const ArgParser& args) {
  ReplicaManagerOptions options;
  options.primary_root = args.GetString("follow", "");
  options.poll_ms = static_cast<int>(args.GetInt("poll_ms", 200));
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
  const auto server = ListenOrUsageError(args, dispatcher, &ok);
  if (!ok) return 1;
  std::cout << "READY follow=" << options.primary_root
            << " poll_ms=" << options.poll_ms;
  if (server != nullptr) std::cout << " listen=" << server->port();
  std::cout << "\n";
  return net::ServeLines(dispatcher, std::cin, std::cout);
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (!SetWidthOrUsageError(args)) return 1;
  if (args.Has("follow")) return FollowerMain(args);
  SessionManagerOptions options;
  options.root_dir = args.GetString("root", "fdm_sessions");
  options.session.snapshot_every =
      static_cast<size_t>(args.GetInt("snapshot_every", 0));
  options.max_resident =
      static_cast<size_t>(args.GetInt("max_resident", 0));
  options.background_snapshot_ms =
      static_cast<int>(args.GetInt("background_ms", 0));

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
  const auto server = ListenOrUsageError(args, dispatcher, &ok);
  if (!ok) return 1;
  std::cout << "READY root=" << options.root_dir;
  if (server != nullptr) std::cout << " listen=" << server->port();
  std::cout << "\n";
  return net::ServeLines(dispatcher, std::cin, std::cout);
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
