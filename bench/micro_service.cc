// Service-layer microbenchmark: snapshot cost, WAL replay throughput, and
// multi-session concurrent ingest scaling. Emits machine-readable
// BENCH_service.json (default: results/BENCH_service.json) so future PRs
// can track the serving-perf trajectory, plus a human-readable summary.
//
//   ./micro_service [--n=20000] [--dim=8] [--out=results]
//
// Sections:
//   snapshot          bytes + latency of a full SFDM2 state snapshot
//   wal_replay        crash-recovery replay points/sec (no snapshot: the
//                     whole stream comes back through ObserveBatch)
//   concurrent_ingest aggregate points/sec with N sessions fed from N
//                     threads through one SessionManager
//   dedup             exactly-once ingest: duplicate-rejection points/sec
//                     (filter probe, no WAL, no admission scan) vs
//                     re-admitting the same stream through a dedup=off
//                     session, plus the clean-stream overhead of carrying
//                     the guard
//
// Release gates (0 = off):
//   --min-dup-speedup=X     fail unless rejecting a fully duplicate
//                           stream is >= X times faster than admitting it
//   --max-dedup-overhead=Y  fail if dedup=on costs more than fraction Y
//                           over dedup=off on a clean (duplicate-free)
//                           stream
//   --max-dedup-bytes-per-id=Z  fail if the duplicate guard of the dedup
//                           cell holds more than Z resident bytes per id
//                           (a byte count: it cannot flip on noise)

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "service/durable_session.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "util/argparse.h"
#include "util/timer.h"

namespace fdm {
namespace {

struct ServiceBenchResult {
  size_t n = 0;
  size_t dim = 0;
  // snapshot
  size_t snapshot_bytes = 0;
  double snapshot_latency_ms = 0.0;
  // wal replay
  double wal_replay_points_per_sec = 0.0;
  // concurrent ingest: sessions -> aggregate points/sec
  std::vector<std::pair<int, double>> concurrent;
  // dedup
  double clean_off_points_per_sec = 0.0;
  double clean_on_points_per_sec = 0.0;
  double clean_overhead_frac = 0.0;
  double dup_reject_points_per_sec = 0.0;
  double dup_admit_points_per_sec = 0.0;
  double dup_speedup = 0.0;
  size_t filter_bytes = 0;
  double filter_bytes_per_id = 0.0;
};

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = EstimateDistanceBounds(ds, 1000, 1);
  return "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
         " quotas=10,10 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

size_t DirBytes(const std::string& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const size_t n = static_cast<size_t>(args.GetInt("n", 20000));
  const size_t dim = static_cast<size_t>(args.GetInt("dim", 8));
  const std::string out_dir = args.GetString("out", "results");
  const double min_dup_speedup = args.GetDouble("min-dup-speedup", 0.0);
  const double max_dedup_overhead =
      args.GetDouble("max-dedup-overhead", 0.0);
  const double max_dedup_bytes_per_id =
      args.GetDouble("max-dedup-bytes-per-id", 0.0);

  BlobsOptions data_options;
  data_options.n = n;
  data_options.dim = dim;
  data_options.num_groups = 2;
  data_options.seed = 1;
  const Dataset ds = MakeBlobs(data_options);
  const std::string spec = SpecFor(ds);

  const std::string scratch =
      (std::filesystem::temp_directory_path() / "fdm_micro_service").string();
  std::filesystem::remove_all(scratch);

  ServiceBenchResult result;
  result.n = n;
  result.dim = dim;

  std::printf("=== micro_service: durable serving engine ===\n");
  std::printf("n=%zu dim=%zu spec: %s\n\n", n, dim, spec.c_str());

  // --- Snapshot size & latency ---------------------------------------
  {
    DurableSessionOptions snap_options;
    snap_options.keep_snapshots = 1;  // snap/ then holds exactly one file,
                                      // so DirBytes measures one snapshot
    auto session =
        DurableSession::Create(scratch + "/snap_bench", spec, snap_options);
    if (!session.ok()) {
      std::fprintf(stderr, "create: %s\n", session.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint point = ds.At(i);
      if (!session->Ingest({&point, 1}, /*as_batch=*/false).ok()) return 1;
    }
    // One warm-up (includes the WAL truncation), then measure.
    if (!session->TakeSnapshot().ok()) return 1;
    constexpr int kReps = 5;
    Timer timer;
    for (int r = 0; r < kReps; ++r) {
      // Dirty the state so each snapshot actually rewrites.
      const StreamPoint point = ds.At(static_cast<size_t>(r));
      if (!session->Ingest({&point, 1}, /*as_batch=*/false).ok()) return 1;
      if (!session->TakeSnapshot().ok()) return 1;
    }
    result.snapshot_latency_ms = timer.ElapsedSeconds() * 1000.0 / kReps;
    result.snapshot_bytes = DirBytes(scratch + "/snap_bench/snap");
    std::printf("snapshot:          %8zu bytes  %8.2f ms (state of %zu pts)\n",
                result.snapshot_bytes, result.snapshot_latency_ms,
                session->StoredElements());
  }

  // --- WAL replay throughput -----------------------------------------
  {
    DurableSessionOptions options;
    {
      auto session =
          DurableSession::Create(scratch + "/replay_bench", spec, options);
      if (!session.ok()) return 1;
      std::vector<StreamPoint> batch;
      batch.reserve(256);
      for (size_t i = 0; i < ds.size(); ++i) {
        batch.push_back(ds.At(i));
        if (batch.size() == 256) {
          if (!session->Ingest(batch, /*as_batch=*/true).ok()) return 1;
          batch.clear();
        }
      }
      if (!batch.empty() && !session->Ingest(batch, /*as_batch=*/true).ok()) {
        return 1;
      }
    }  // dropped without a snapshot: recovery must replay the whole WAL
    Timer timer;
    auto recovered = DurableSession::Open(scratch + "/replay_bench", options);
    const double replay_sec = timer.ElapsedSeconds();
    if (!recovered.ok()) {
      std::fprintf(stderr, "open: %s\n", recovered.status().ToString().c_str());
      return 1;
    }
    result.wal_replay_points_per_sec =
        static_cast<double>(recovered->ObservedElements()) / replay_sec;
    std::printf("wal replay:      %10.0f points/sec (%lld pts in %.3f s)\n",
                result.wal_replay_points_per_sec,
                static_cast<long long>(recovered->ObservedElements()),
                replay_sec);
  }

  // --- Concurrent multi-session ingest scaling -----------------------
  for (const int sessions : {1, 2, 4}) {
    SessionManagerOptions options;
    options.root_dir = scratch + "/ingest_" + std::to_string(sessions);
    auto manager = SessionManager::Create(options);
    if (!manager.ok()) return 1;
    for (int s = 0; s < sessions; ++s) {
      if (!(*manager)->CreateSession("s" + std::to_string(s), spec).ok()) {
        return 1;
      }
    }
    const size_t per_session = ds.size() / static_cast<size_t>(sessions);
    Timer timer;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      workers.emplace_back([&, s] {
        const std::string name = "s" + std::to_string(s);
        for (size_t i = 0; i < per_session; ++i) {
          const StreamPoint point = ds.At(i);
          (void)(*manager)->Ingest(name, {&point, 1}, /*as_batch=*/false);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double pps =
        static_cast<double>(per_session * static_cast<size_t>(sessions)) /
        timer.ElapsedSeconds();
    result.concurrent.emplace_back(sessions, pps);
    std::printf("ingest x%d:       %10.0f points/sec aggregate\n", sessions,
                pps);
  }

  // --- Exactly-once ingest: guard overhead & rejection speed ---------
  {
    const std::string dedup_spec = spec + " dedup=on";
    auto ingest_all = [&](DurableSession& session) -> bool {
      std::vector<StreamPoint> batch;
      batch.reserve(256);
      for (size_t i = 0; i < ds.size(); ++i) {
        batch.push_back(ds.At(i));
        if (batch.size() == 256) {
          if (!session.Ingest(batch, /*as_batch=*/true).ok()) return false;
          batch.clear();
        }
      }
      return batch.empty() ||
             session.Ingest(batch, /*as_batch=*/true).ok();
    };

    // Clean-stream overhead: the same duplicate-free stream through a
    // dedup=off and a dedup=on session, best-of-3 fresh runs each (the
    // guard's cost on a clean stream is one filter probe + insert per
    // point; it must stay in the noise next to WAL append + admission).
    constexpr int kReps = 3;
    double best_off_sec = 0.0;
    double best_on_sec = 0.0;
    for (int r = 0; r < kReps; ++r) {
      for (const bool dedup : {false, true}) {
        const std::string dir = scratch + "/clean_" +
                                (dedup ? "on" : "off") + std::to_string(r);
        auto session = DurableSession::Create(
            dir, dedup ? dedup_spec : spec, DurableSessionOptions{});
        if (!session.ok()) {
          std::fprintf(stderr, "create: %s\n",
                       session.status().ToString().c_str());
          return 1;
        }
        Timer timer;
        if (!ingest_all(*session)) return 1;
        const double sec = timer.ElapsedSeconds();
        double& best = dedup ? best_on_sec : best_off_sec;
        if (best == 0.0 || sec < best) best = sec;
      }
    }
    result.clean_off_points_per_sec =
        static_cast<double>(ds.size()) / best_off_sec;
    result.clean_on_points_per_sec =
        static_cast<double>(ds.size()) / best_on_sec;
    result.clean_overhead_frac = best_on_sec / best_off_sec - 1.0;

    // Duplicate handling: the whole stream again. The dedup=on session
    // rejects everything before the WAL; the dedup=off session re-admits
    // everything (WAL append + admission scan) — that contrast is the
    // price exactly-once semantics refunds on replayed traffic.
    auto reject = DurableSession::Create(scratch + "/dup_on", dedup_spec,
                                         DurableSessionOptions{});
    auto admit = DurableSession::Create(scratch + "/dup_off", spec,
                                        DurableSessionOptions{});
    if (!reject.ok() || !admit.ok()) return 1;
    if (!ingest_all(*reject) || !ingest_all(*admit)) return 1;
    double best_reject_sec = 0.0;
    double best_admit_sec = 0.0;
    for (int r = 0; r < kReps; ++r) {
      Timer reject_timer;
      if (!ingest_all(*reject)) return 1;
      const double reject_sec = reject_timer.ElapsedSeconds();
      if (best_reject_sec == 0.0 || reject_sec < best_reject_sec) {
        best_reject_sec = reject_sec;
      }
      Timer admit_timer;
      if (!ingest_all(*admit)) return 1;
      const double admit_sec = admit_timer.ElapsedSeconds();
      if (best_admit_sec == 0.0 || admit_sec < best_admit_sec) {
        best_admit_sec = admit_sec;
      }
    }
    if (reject->DuplicatesRejected() !=
        static_cast<int64_t>(ds.size()) * kReps) {
      std::fprintf(stderr, "dedup bench: expected every re-observed point "
                           "rejected\n");
      return 1;
    }
    result.dup_reject_points_per_sec =
        static_cast<double>(ds.size()) / best_reject_sec;
    result.dup_admit_points_per_sec =
        static_cast<double>(ds.size()) / best_admit_sec;
    result.dup_speedup = best_admit_sec / best_reject_sec;
    result.filter_bytes = reject->dedup_filter()->MemoryBytes();
    result.filter_bytes_per_id =
        static_cast<double>(result.filter_bytes) /
        static_cast<double>(reject->dedup_filter()->Size());
    std::printf("dedup clean:     %10.0f points/sec on, %.0f off "
                "(overhead %+.1f%%)\n",
                result.clean_on_points_per_sec,
                result.clean_off_points_per_sec,
                result.clean_overhead_frac * 100.0);
    std::printf("dedup reject:    %10.0f points/sec vs %10.0f re-admit "
                "(%.1fx, filter %zu B = %.2f B/id)\n",
                result.dup_reject_points_per_sec,
                result.dup_admit_points_per_sec, result.dup_speedup,
                result.filter_bytes, result.filter_bytes_per_id);
  }

  std::filesystem::remove_all(scratch);

  // --- BENCH_service.json --------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/BENCH_service.json";
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"n\": " << result.n << ",\n"
       << "  \"dim\": " << result.dim << ",\n"
       << "  \"snapshot\": {\"bytes\": " << result.snapshot_bytes
       << ", \"latency_ms\": " << result.snapshot_latency_ms << "},\n"
       << "  \"wal_replay\": {\"points_per_sec\": "
       << result.wal_replay_points_per_sec << "},\n"
       << "  \"concurrent_ingest\": [";
  for (size_t i = 0; i < result.concurrent.size(); ++i) {
    if (i > 0) json << ", ";
    json << "{\"sessions\": " << result.concurrent[i].first
         << ", \"points_per_sec\": " << result.concurrent[i].second << "}";
  }
  json << "],\n"
       << "  \"dedup\": {\"clean_off_points_per_sec\": "
       << result.clean_off_points_per_sec
       << ", \"clean_on_points_per_sec\": "
       << result.clean_on_points_per_sec
       << ", \"clean_overhead_frac\": " << result.clean_overhead_frac
       << ", \"dup_reject_points_per_sec\": "
       << result.dup_reject_points_per_sec
       << ", \"dup_admit_points_per_sec\": "
       << result.dup_admit_points_per_sec
       << ", \"dup_speedup\": " << result.dup_speedup
       << ", \"filter_bytes\": " << result.filter_bytes
       << ", \"filter_bytes_per_id\": " << result.filter_bytes_per_id
       << "}\n}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  // --- Release gates -------------------------------------------------
  bool gate_failed = false;
  if (min_dup_speedup > 0.0 && result.dup_speedup < min_dup_speedup) {
    std::fprintf(stderr,
                 "GATE FAILED: duplicate rejection %.1fx re-admission, "
                 "need >= %.1fx\n",
                 result.dup_speedup, min_dup_speedup);
    gate_failed = true;
  }
  if (max_dedup_overhead > 0.0 &&
      result.clean_overhead_frac > max_dedup_overhead) {
    std::fprintf(stderr,
                 "GATE FAILED: dedup=on clean-stream overhead %.1f%%, "
                 "allowed <= %.1f%%\n",
                 result.clean_overhead_frac * 100.0,
                 max_dedup_overhead * 100.0);
    gate_failed = true;
  }
  if (max_dedup_bytes_per_id > 0.0 &&
      result.filter_bytes_per_id > max_dedup_bytes_per_id) {
    std::fprintf(stderr,
                 "GATE FAILED: dedup guard holds %.2f B per id, "
                 "allowed <= %.2f\n",
                 result.filter_bytes_per_id, max_dedup_bytes_per_id);
    gate_failed = true;
  }
  if (gate_failed) return 1;
  if (min_dup_speedup > 0.0 || max_dedup_overhead > 0.0 ||
      max_dedup_bytes_per_id > 0.0) {
    std::printf("dedup gates passed (%.1fx rejection, %+.1f%% clean "
                "overhead, %.2f B per id)\n",
                result.dup_speedup, result.clean_overhead_frac * 100.0,
                result.filter_bytes_per_id);
  }
  return 0;
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
