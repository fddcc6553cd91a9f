// Replication microbenchmark + seeded soak: follower bootstrap latency,
// WAL-tail catch-up throughput, replication-lag distribution while the
// primary ingests live, and follower-vs-primary cached SOLVE throughput.
// Emits machine-readable BENCH_replica.json (default:
// results/BENCH_replica.json) so future PRs track the replica-serving
// trajectory.
//
//   ./micro_replica [--n=20000] [--dim=8] [--out=results]
//                   [--min-solve-ratio=0]   fail when follower cached
//                                           SOLVE/s < ratio × primary's
//                   [--max-fetch-bytes-per-record=0]
//                                           fail when the lag section's
//                                           follower fetched more bytes per
//                                           applied record (a byte count,
//                                           so the gate cannot flap)
//   ./micro_replica --soak --n=200000 --kills=10 --seed=7
//                                           randomized kill/restart soak:
//                                           ingest the stream in seeded
//                                           random slices, kill the
//                                           follower (fresh bootstrap) at
//                                           seeded points, snapshot the
//                                           primary at seeded points
//                                           (pruning races included), and
//                                           require bit-identical solutions
//                                           at the matched state version
//                                           after the final catch-up.
//
// Sections (bench mode):
//   bootstrap       snapshot-restore + tail-apply time of a cold follower
//   catchup         WAL-tail-only apply points/sec (no snapshot available)
//   lag             per-poll lag samples while the primary ingests live
//                   (bounded polls) — p50/p99 + final lag, and the bytes
//                   the follower fetched per record it applied
//   solve_ratio     follower cached SOLVE/s ÷ primary cached SOLVE/s

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "obs/histogram.h"
#include "replica/replica_session.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"
#include "util/argparse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace fdm {
namespace {

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = EstimateDistanceBounds(ds, 1000, 1);
  return "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
         " quotas=10,10 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

Status FeedBatched(DurableSession& session, const Dataset& ds, size_t begin,
                   size_t end) {
  std::vector<StreamPoint> batch;
  batch.reserve(256);
  for (size_t i = begin; i < end; ++i) {
    batch.push_back(ds.At(i));
    if (batch.size() == 256 || i + 1 == end) {
      if (Status s = session.Ingest(batch, /*as_batch=*/true).status();
          !s.ok()) {
        return s;
      }
      batch.clear();
    }
  }
  return Status::Ok();
}

bool SameSolution(const Result<Solution>& a, const Result<Solution>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return true;
  return a->Ids() == b->Ids() && a->diversity == b->diversity &&
         a->mu == b->mu;
}

/// Seeded kill/restart soak; returns 0 on bit-identical convergence.
int RunSoak(const Dataset& ds, const std::string& scratch, int kills,
            uint64_t seed) {
  const std::string dir = scratch + "/soak_primary";
  const std::string spec = SpecFor(ds);
  DurableSessionOptions options;
  options.wal.segment_bytes = 64u << 10;  // rotations + pruning are real
  options.keep_snapshots = 2;
  auto primary = DurableSession::Create(dir, spec, options);
  if (!primary.ok()) {
    std::fprintf(stderr, "soak: %s\n", primary.status().ToString().c_str());
    return 1;
  }

  Rng rng(seed);
  // Kill points: `kills` distinct stream positions, plus snapshot points
  // interleaved so bootstraps land on changing snapshot/tail splits.
  std::vector<size_t> cuts;
  for (int i = 0; i < kills; ++i) {
    cuts.push_back(1 + static_cast<size_t>(rng.NextBounded(ds.size())));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  cuts.push_back(ds.size());

  auto source = std::make_shared<DirReplicationSource>(dir);
  std::unique_ptr<ReplicaSession> follower;
  ReplicaOptions follower_options;
  follower_options.max_records_per_poll = 8192;
  uint64_t restarts = 0;
  size_t fed = 0;

  for (const size_t cut : cuts) {
    if (cut <= fed) continue;
    if (Status s = FeedBatched(*primary, ds, fed, cut); !s.ok()) {
      std::fprintf(stderr, "soak feed: %s\n", s.ToString().c_str());
      return 1;
    }
    fed = cut;
    // Seeded coin: snapshot (prunes the tail under the follower) or just
    // sync (WAL-only tail grows).
    const Status durability =
        (rng.NextUint64() & 1) != 0 ? primary->TakeSnapshot() : primary->Sync();
    if (!durability.ok()) {
      std::fprintf(stderr, "soak sync: %s\n", durability.ToString().c_str());
      return 1;
    }
    // Kill the follower here: drop it and bootstrap a fresh one, or poll
    // the survivor — seeded either way.
    if (follower == nullptr || (rng.NextUint64() & 1) != 0) {
      follower.reset();
      auto booted = ReplicaSession::Bootstrap(source, follower_options);
      if (!booted.ok()) {
        std::fprintf(stderr, "soak bootstrap: %s\n",
                     booted.status().ToString().c_str());
        return 1;
      }
      follower = std::make_unique<ReplicaSession>(std::move(booted.value()));
      ++restarts;
    }
    for (int i = 0; i < 1000 && follower->Stats().lag > 0; ++i) {
      if (auto polled = follower->Poll(); !polled.ok()) {
        std::fprintf(stderr, "soak poll: %s\n",
                     polled.status().ToString().c_str());
        return 1;
      }
    }
    if (follower->Stats().lag != 0) {
      std::fprintf(stderr, "soak: follower stuck at lag %lld\n",
                   static_cast<long long>(follower->Stats().lag));
      return 1;
    }
  }

  if (!primary->Sync().ok()) return 1;
  if (auto polled = follower->Poll(); !polled.ok()) return 1;
  const bool versions_match =
      follower->StateVersion() == primary->StateVersion();
  const bool solutions_match =
      SameSolution(follower->Solve(), primary->Solve());
  const auto stats = follower->Stats();
  std::printf(
      "soak: n=%zu kills(planned)=%d restarts=%llu resyncs=%llu "
      "versions_match=%d solutions_match=%d\n",
      ds.size(), kills, static_cast<unsigned long long>(restarts),
      static_cast<unsigned long long>(stats.resyncs),
      versions_match ? 1 : 0, solutions_match ? 1 : 0);
  if (!versions_match || !solutions_match) {
    std::fprintf(stderr,
                 "soak FAILED: follower not bit-identical to primary at "
                 "matched position\n");
    return 1;
  }
  std::printf("soak PASS\n");
  return 0;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const size_t n = static_cast<size_t>(args.GetInt("n", 20000));
  const size_t dim = static_cast<size_t>(args.GetInt("dim", 8));
  const std::string out_dir = args.GetString("out", "results");
  const double min_solve_ratio = args.GetDouble("min-solve-ratio", 0.0);
  const double max_fetch_bytes_per_record =
      args.GetDouble("max-fetch-bytes-per-record", 0.0);

  BlobsOptions data_options;
  data_options.n = n;
  data_options.dim = dim;
  data_options.num_groups = 2;
  data_options.seed = 1;
  const Dataset ds = MakeBlobs(data_options);

  const std::string scratch =
      (std::filesystem::temp_directory_path() / "fdm_micro_replica").string();
  std::filesystem::remove_all(scratch);

  if (args.GetBool("soak", false)) {
    const int kills = static_cast<int>(args.GetInt("kills", 10));
    const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    const int rc = RunSoak(ds, scratch, kills, seed);
    std::filesystem::remove_all(scratch);
    return rc;
  }

  const std::string spec = SpecFor(ds);
  std::printf("=== micro_replica: read-replica serving ===\n");
  std::printf("n=%zu dim=%zu spec: %s\n\n", n, dim, spec.c_str());

  double bootstrap_ms = 0.0;
  double catchup_pps = 0.0;
  double lag_p50 = 0.0, lag_p99 = 0.0;
  int64_t final_lag = -1;
  double fetch_bytes_per_record = 0.0;
  double primary_solves_per_sec = 0.0, follower_solves_per_sec = 0.0;

  // --- Bootstrap (snapshot at midpoint + WAL tail) --------------------
  {
    const std::string dir = scratch + "/bootstrap";
    auto primary = DurableSession::Create(dir, spec);
    if (!primary.ok()) {
      std::fprintf(stderr, "create: %s\n",
                   primary.status().ToString().c_str());
      return 1;
    }
    if (!FeedBatched(*primary, ds, 0, ds.size() / 2).ok()) return 1;
    if (!primary->TakeSnapshot().ok()) return 1;
    if (!FeedBatched(*primary, ds, ds.size() / 2, ds.size()).ok()) return 1;
    if (!primary->Sync().ok()) return 1;

    Timer timer;
    auto follower = ReplicaSession::Bootstrap(
        std::make_shared<DirReplicationSource>(dir));
    bootstrap_ms = timer.ElapsedSeconds() * 1000.0;
    if (!follower.ok()) {
      std::fprintf(stderr, "bootstrap: %s\n",
                   follower.status().ToString().c_str());
      return 1;
    }
    std::printf("bootstrap:       %10.2f ms (snapshot@%zu + %zu-record "
                "tail)\n",
                bootstrap_ms, ds.size() / 2, ds.size() - ds.size() / 2);

    // --- Cached SOLVE throughput, follower vs primary -----------------
    if (!primary->Solve().ok() || !follower->Solve().ok()) return 1;
    constexpr int kSolves = 20000;
    Timer primary_timer;
    for (int i = 0; i < kSolves; ++i) {
      if (!primary->Solve().ok()) return 1;
    }
    primary_solves_per_sec = kSolves / primary_timer.ElapsedSeconds();
    Timer follower_timer;
    for (int i = 0; i < kSolves; ++i) {
      if (!follower->Solve().ok()) return 1;
    }
    follower_solves_per_sec = kSolves / follower_timer.ElapsedSeconds();
    std::printf("cached SOLVE:    %10.0f /s primary  %10.0f /s follower "
                "(ratio %.2f)\n",
                primary_solves_per_sec, follower_solves_per_sec,
                follower_solves_per_sec / primary_solves_per_sec);
  }

  // --- Catch-up throughput (WAL tail only, no snapshot) ---------------
  {
    const std::string dir = scratch + "/catchup";
    auto primary = DurableSession::Create(dir, spec);
    if (!primary.ok()) return 1;
    if (!FeedBatched(*primary, ds, 0, ds.size()).ok()) return 1;
    if (!primary->Sync().ok()) return 1;
    Timer timer;
    auto follower = ReplicaSession::Bootstrap(
        std::make_shared<DirReplicationSource>(dir));
    const double sec = timer.ElapsedSeconds();
    if (!follower.ok()) return 1;
    catchup_pps = static_cast<double>(ds.size()) / sec;
    std::printf("catchup:         %10.0f points/sec (%zu records, "
                "tail-only)\n",
                catchup_pps, ds.size());
  }

  // --- Lag while the primary ingests (bounded polls) ------------------
  {
    const std::string dir = scratch + "/lag";
    auto primary = DurableSession::Create(dir, spec);
    if (!primary.ok()) return 1;
    if (!FeedBatched(*primary, ds, 0, 1024).ok()) return 1;
    if (!primary->Sync().ok()) return 1;
    ReplicaOptions bounded;
    bounded.max_records_per_poll = 2048;
    auto follower = ReplicaSession::Bootstrap(
        std::make_shared<DirReplicationSource>(dir), bounded);
    if (!follower.ok()) return 1;

    // Per-poll lag samples through the shared log-bucketed histogram:
    // p50/p99 are bucket upper bounds (exact below 8, ≤ 14% high above),
    // the same semantics the METRICS plane reports for fdm_replica_lag.
    obs::HistogramSnapshot lag_hist;
    size_t fed = 1024;
    while (fed < ds.size()) {
      const size_t slice = std::min<size_t>(4096, ds.size() - fed);
      if (!FeedBatched(*primary, ds, fed, fed + slice).ok()) return 1;
      fed += slice;
      if (!primary->Sync().ok()) return 1;
      if (!follower->Poll().ok()) return 1;
      lag_hist.Record(
          static_cast<uint64_t>(std::max<int64_t>(0, follower->Stats().lag)));
    }
    for (int i = 0; i < 1000 && follower->Stats().lag > 0; ++i) {
      if (!follower->Poll().ok()) return 1;
      lag_hist.Record(
          static_cast<uint64_t>(std::max<int64_t>(0, follower->Stats().lag)));
    }
    const auto stats = follower->Stats();
    final_lag = stats.lag;
    fetch_bytes_per_record = static_cast<double>(stats.fetched_bytes) /
                             static_cast<double>(stats.applied_seq);
    lag_p50 = static_cast<double>(lag_hist.Percentile(0.5));
    lag_p99 = static_cast<double>(lag_hist.Percentile(0.99));
    std::printf("lag:             p50=%.0f p99=%.0f final=%lld "
                "(records behind, %llu polls)\n",
                lag_p50, lag_p99, static_cast<long long>(final_lag),
                static_cast<unsigned long long>(lag_hist.count));
    std::printf("fetch:           %10.1f bytes per applied record\n",
                fetch_bytes_per_record);
  }

  std::filesystem::remove_all(scratch);

  // --- BENCH_replica.json --------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/BENCH_replica.json";
  {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"n\": " << n << ",\n"
         << "  \"dim\": " << dim << ",\n"
         << "  \"bootstrap\": {\"latency_ms\": " << bootstrap_ms << "},\n"
         << "  \"catchup\": {\"points_per_sec\": " << catchup_pps << "},\n"
         << "  \"lag\": {\"p50\": " << lag_p50 << ", \"p99\": " << lag_p99
         << ", \"final\": " << final_lag
         << ", \"fetch_bytes_per_record\": " << fetch_bytes_per_record
         << "},\n"
         << "  \"cached_solve\": {\"primary_per_sec\": "
         << primary_solves_per_sec << ", \"follower_per_sec\": "
         << follower_solves_per_sec << ", \"ratio\": "
         << (primary_solves_per_sec > 0.0
                 ? follower_solves_per_sec / primary_solves_per_sec
                 : 0.0)
         << "}\n}\n";
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  if (final_lag != 0) {
    std::fprintf(stderr, "FAIL: follower never fully caught up (lag %lld)\n",
                 static_cast<long long>(final_lag));
    return 1;
  }
  if (max_fetch_bytes_per_record > 0.0 &&
      fetch_bytes_per_record > max_fetch_bytes_per_record) {
    std::fprintf(stderr,
                 "FAIL: follower fetched %.1f bytes per applied record > "
                 "%.1f\n",
                 fetch_bytes_per_record, max_fetch_bytes_per_record);
    return 1;
  }
  if (min_solve_ratio > 0.0 &&
      follower_solves_per_sec < min_solve_ratio * primary_solves_per_sec) {
    std::fprintf(stderr,
                 "FAIL: follower cached SOLVE %.0f/s < %.2f x primary "
                 "%.0f/s\n",
                 follower_solves_per_sec, min_solve_ratio,
                 primary_solves_per_sec);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
