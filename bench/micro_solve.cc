// Query-path microbenchmark: repeated-SOLVE throughput cold vs incremental
// vs cached, and SOLVE latency under concurrent OBSERVE load. Emits
// machine-readable BENCH_solve.json (default: results/BENCH_solve.json) so
// future PRs can track the serving-perf trajectory, plus a human summary.
//
//   ./micro_solve [--n=20000] [--dim=8] [--reps=25] [--cold_reps=25]
//                 [--out=results] [--min-cold-speedup=0]
//                 [--min-parallel-cold-speedup=0]
//
// Sections:
//   solve_cold       full SFDM-2 post-processing from scratch (the memo is
//                    emptied by restoring a fresh copy before every rep)
//   solve_warm       repeated Solve() on the same unchanged sink — the
//                    per-rung incremental memo answers, no SolveCache
//   solve_cached     repeated Solve() through a version-keyed SolveCache —
//                    the serving hot path (a memoized copy per query)
//   cold_grid        cache-miss Solve() per registered streaming kind ×
//                    n {4096, 16384} × k {10, 20} at dim 25 (Euclidean),
//                    under every reachable kernel target × solve width
//                    {1, 2, 4} — the offline Solve-path routing's SIMD ×
//                    rung-parallel speedup surface. Each cell's
//                    (target, width) runs are interleaved rep by rep and
//                    each reports its median over --cold_reps reps, so
//                    drift in machine load hits every column alike
//   under_ingest     SOLVE latency against a live SessionManager session
//                    while a writer floods OBSERVE into another session
//
// --min-cold-speedup=X (release gate): exit non-zero unless, at the
// sfdm2 / n=16384 / k=20 / threads=1 cold_grid cell, the best non-scalar
// target's cold Solve is at least X× faster than the scalar target's.
// Before the kernel-routing PR the offline Solve loops *were* scalar
// regardless of target, so the scalar column doubles as the prior-release
// baseline. Vacuously passes (with a warning) when only the scalar target
// is available.
//
// --min-parallel-cold-speedup=X (release gate): exit non-zero unless, at
// the same sfdm2 / n=16384 / k=20 cell, some target's threads=4 cold
// Solve is at least X× faster than that target's own threads=1 run (the
// rung-parallel scaling gate; solutions are bit-identical either way).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallelism.h"
#include "core/sfdm2.h"
#include "core/sink_snapshot.h"
#include "core/solve_cache.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "obs/histogram.h"
#include "harness/registry.h"
#include "service/session_manager.h"
#include "util/argparse.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/timer.h"

namespace fdm {
namespace {

/// One cell of the cold-SOLVE grid.
struct ColdCell {
  std::string kind;
  size_t n = 0;
  int k = 0;
  std::string target;
  int threads = 1;
  double cold_ms = 0.0;
  // Both filled after the sweep: vs the scalar target at the same thread
  // count, and vs this target's own threads=1 run.
  double speedup_vs_scalar = 0.0;
  double parallel_speedup = 0.0;
};

/// Median of `values` (which it reorders); 0 when empty.
double Median(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(
                                        values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(values.begin(), mid)) / 2.0;
}

/// Cache-miss Solve() cost per (kernel target, solve width) for one
/// (kind, n, k) cell: ingest once, snapshot, then restore a fresh sink
/// (empty memo) per run and time Solve() alone. The runs are interleaved
/// rep by rep — every (target, width) pair once per rep — and each pair
/// reports its median, so a burst of load on a shared machine skews one
/// rep of every column rather than all reps of one. Returns false if the
/// kind cannot run the cell (creation or solve error) — the grid skips
/// it.
bool TimeColdCell(AlgorithmKind kind, size_t n, const std::vector<int>& quotas,
                  int cold_reps, std::vector<ColdCell>& cells) {
  BlobsOptions data_options;
  data_options.n = n;
  data_options.dim = 25;  // the paper's Adult-scale dimensionality
  data_options.num_groups = 2;
  data_options.seed = 7 + n;
  const Dataset ds = MakeBlobs(data_options);
  const DistanceBounds bounds = EstimateDistanceBounds(ds, 1000, 1);

  const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
  if (entry == nullptr || !entry->streaming) return false;
  RunConfig config;
  config.algorithm = kind;
  config.constraint.quotas = quotas;
  config.bounds = bounds;
  config.num_shards = 3;
  config.window_size = 0;

  auto sink = entry->make_sink(ds, config);
  if (!sink.ok()) return false;
  std::vector<StreamPoint> batch;
  batch.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) batch.push_back(ds.At(i));
  (*sink)->ObserveBatch(batch);
  SnapshotWriter writer;
  if (!(*sink)->Snapshot(writer).ok()) return false;
  const std::string bytes = writer.Serialize();

  // One cold Solve() under the current target and width, in seconds;
  // negative on error.
  auto time_cold_solve = [&bytes]() -> double {
    auto reader = SnapshotReader::FromBytes(bytes);
    if (!reader.ok()) return -1.0;
    auto fresh = RestoreSink(*reader);
    if (!fresh.ok()) return -1.0;
    Timer timer;
    if (!(*fresh)->Solve().ok()) return -1.0;
    return timer.ElapsedSeconds();
  };
  const std::vector<std::string_view> targets =
      simd::AvailableKernelTargets();
  const std::vector<int> widths = {1, 2, 4};
  // seconds[t * widths.size() + w]: one sample per rep.
  std::vector<std::vector<double>> seconds(targets.size() * widths.size());
  bool ok = true;
  for (int r = 0; r < cold_reps && ok; ++r) {
    for (size_t t = 0; t < targets.size() && ok; ++t) {
      FDM_CHECK(simd::internal::ForceKernelTargetForTest(targets[t]));
      for (size_t w = 0; w < widths.size() && ok; ++w) {
        FDM_CHECK(Parallelism::SetThreads(widths[w]).ok());
        const double sample = time_cold_solve();
        ok = sample >= 0.0;
        seconds[t * widths.size() + w].push_back(sample);
      }
    }
  }
  simd::internal::ForceKernelTargetForTest("");
  FDM_CHECK(Parallelism::SetThreads(1).ok());
  if (!ok) return false;

  const int k = config.constraint.TotalK();
  for (size_t t = 0; t < targets.size(); ++t) {
    for (size_t w = 0; w < widths.size(); ++w) {
      ColdCell cell;
      cell.kind = std::string(AlgorithmName(kind));
      cell.n = n;
      cell.k = k;
      cell.target = std::string(targets[t]);
      cell.threads = widths[w];
      cell.cold_ms = Median(seconds[t * widths.size() + w]) * 1000.0;
      cells.push_back(cell);
    }
  }
  return true;
}

struct SolveBenchResult {
  size_t n = 0;
  size_t dim = 0;
  int reps = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double cached_ms = 0.0;
  double cached_speedup_vs_cold = 0.0;
  // under concurrent ingest (percentiles from the shared log-bucketed
  // histogram — p50/p99/max are bucket upper bounds, i.e. conservative)
  double solve_mean_ms = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
  double solve_max_ms = 0.0;
  double solves_per_sec = 0.0;
  double ingest_points_per_sec = 0.0;
};

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  SolveBenchResult result;
  result.n = static_cast<size_t>(args.GetInt("n", 20000));
  result.dim = static_cast<size_t>(args.GetInt("dim", 8));
  result.reps = static_cast<int>(args.GetInt("reps", 25));
  const int cold_reps = static_cast<int>(args.GetInt("cold_reps", 25));
  const double min_cold_speedup = args.GetDouble("min-cold-speedup", 0.0);
  const double min_parallel_cold_speedup =
      args.GetDouble("min-parallel-cold-speedup", 0.0);
  const std::string out_dir = args.GetString("out", "results");

  BlobsOptions data_options;
  data_options.n = result.n;
  data_options.dim = result.dim;
  data_options.num_groups = 2;
  data_options.seed = 1;
  const Dataset ds = MakeBlobs(data_options);
  const DistanceBounds bounds = EstimateDistanceBounds(ds, 1000, 1);

  FairnessConstraint constraint;
  constraint.quotas = {10, 10};
  StreamingOptions streaming;
  streaming.d_min = bounds.min;
  streaming.d_max = bounds.max;

  std::printf("=== micro_solve: incremental query path ===\n");
  std::printf("n=%zu dim=%zu reps=%d quotas=10,10\n\n", result.n, result.dim,
              result.reps);

  auto sink =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), streaming);
  if (!sink.ok()) {
    std::fprintf(stderr, "create: %s\n", sink.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));

  // --- Cold: fresh post-processing every rep --------------------------
  // Restoring from a snapshot yields a sink with an empty per-rung memo,
  // so each timed Solve() pays the full Algorithm 3 lines 9–19.
  {
    SnapshotWriter writer;
    if (!sink->Snapshot(writer).ok()) return 1;
    const std::string bytes = writer.Serialize();
    double total = 0.0;
    for (int r = 0; r < result.reps; ++r) {
      auto reader = SnapshotReader::FromBytes(bytes);
      if (!reader.ok()) return 1;
      auto fresh = Sfdm2::Restore(*reader);
      if (!fresh.ok()) return 1;
      Timer timer;
      if (!fresh->Solve().ok()) return 1;
      total += timer.ElapsedSeconds();
    }
    result.cold_ms = total * 1000.0 / result.reps;
    std::printf("solve cold:      %10.3f ms/solve (from-scratch)\n",
                result.cold_ms);
  }

  // --- Warm: the per-rung incremental memo ----------------------------
  {
    (void)sink->Solve();  // populate the memo once
    Timer timer;
    for (int r = 0; r < result.reps; ++r) {
      if (!sink->Solve().ok()) return 1;
    }
    result.warm_ms = timer.ElapsedSeconds() * 1000.0 / result.reps;
    std::printf("solve warm:      %10.3f ms/solve (per-rung memo)\n",
                result.warm_ms);
  }

  // --- Cached: the serving hot path -----------------------------------
  {
    SolveCache cache;
    const uint64_t version = sink->StateVersion();
    (void)cache.GetOrCompute(version, [&] { return sink->Solve(); });
    Timer timer;
    for (int r = 0; r < result.reps; ++r) {
      if (!cache.GetOrCompute(version, [&] { return sink->Solve(); }).ok()) {
        return 1;
      }
    }
    result.cached_ms = timer.ElapsedSeconds() * 1000.0 / result.reps;
    // Guard the ratio against timer granularity: reps of cache hits can
    // measure 0.0 ms, which means maximal speedup, not zero.
    result.cached_speedup_vs_cold =
        result.cold_ms / std::max(result.cached_ms, 1e-6);
    std::printf(
        "solve cached:    %10.3f ms/solve (SolveCache hit)  %.0fx vs cold\n",
        result.cached_ms, result.cached_speedup_vs_cold);
  }

  // --- Cold-SOLVE grid across kinds, sizes, and kernel targets --------
  std::vector<ColdCell> cold_cells;
  {
    std::printf("\ncold grid (dim 25, euclidean, median of %d interleaved "
                "reps/cell):\n",
                cold_reps);
    for (const AlgorithmKind kind : AlgorithmRegistry::Instance().Kinds()) {
      const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
      if (entry == nullptr || !entry->streaming) continue;
      for (const size_t grid_n : {size_t{4096}, size_t{16384}}) {
        for (const std::vector<int>& quotas :
             {std::vector<int>{5, 5}, std::vector<int>{10, 10}}) {
          TimeColdCell(kind, grid_n, quotas, cold_reps, cold_cells);
        }
      }
    }
    // Speedups: vs the scalar column of the same (kind, n, k, threads)
    // cell, and vs the same target's threads=1 column.
    for (ColdCell& c : cold_cells) {
      for (const ColdCell& s : cold_cells) {
        if (s.kind != c.kind || s.n != c.n || s.k != c.k) continue;
        if (s.target == "scalar" && s.threads == c.threads) {
          c.speedup_vs_scalar = c.cold_ms > 0.0 ? s.cold_ms / c.cold_ms : 0.0;
        }
        if (s.target == c.target && s.threads == 1) {
          c.parallel_speedup = c.cold_ms > 0.0 ? s.cold_ms / c.cold_ms : 0.0;
        }
      }
    }
    std::printf("%-14s %6s %3s %-7s %3s %12s %9s %9s\n", "kind", "n", "k",
                "target", "thr", "cold ms", "vs scal", "vs 1thr");
    for (const ColdCell& c : cold_cells) {
      std::printf("%-14s %6zu %3d %-7s %3d %12.3f %8.2fx %8.2fx\n",
                  c.kind.c_str(), c.n, c.k, c.target.c_str(), c.threads,
                  c.cold_ms, c.speedup_vs_scalar, c.parallel_speedup);
    }
  }

  // --- SOLVE latency under concurrent OBSERVE load --------------------
  {
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "fdm_micro_solve").string();
    std::filesystem::remove_all(scratch);
    SessionManagerOptions options;
    options.root_dir = scratch;
    auto manager = SessionManager::Create(options);
    if (!manager.ok()) return 1;
    const std::string spec =
        "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
        " quotas=10,10 dmin=" + std::to_string(bounds.min) +
        " dmax=" + std::to_string(bounds.max);
    if (!(*manager)->CreateSession("hot", spec).ok()) return 1;
    if (!(*manager)->CreateSession("ingest", spec).ok()) return 1;
    for (size_t i = 0; i < ds.size() / 2; ++i) {
      const StreamPoint point = ds.At(i);
      if (!(*manager)->Ingest("hot", {&point, 1}, /*as_batch=*/false).ok()) {
        return 1;
      }
    }
    (void)(*manager)->Solve("hot");  // warm the cache

    std::atomic<bool> stop{false};
    std::atomic<size_t> ingested{0};
    std::thread writer([&] {
      // Flood a different session: its exclusive lock must not serialize
      // against the hot session's shared-lock query path.
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const StreamPoint point = ds.At(i % ds.size());
        if ((*manager)->Ingest("ingest", {&point, 1}, /*as_batch=*/false)
                .ok()) {
          ingested.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
    obs::HistogramSnapshot latency;
    Timer wall;
    while (wall.ElapsedSeconds() < 1.0) {
      Timer one;
      if (!(*manager)->Solve("hot").ok()) return 1;
      latency.Record(static_cast<uint64_t>(one.ElapsedNanos()));
    }
    const double elapsed = wall.ElapsedSeconds();
    stop.store(true, std::memory_order_relaxed);
    writer.join();

    constexpr double kNsToMs = 1e-6;
    result.solve_mean_ms = latency.Mean() * kNsToMs;
    result.solve_p50_ms =
        static_cast<double>(latency.Percentile(0.5)) * kNsToMs;
    result.solve_p99_ms =
        static_cast<double>(latency.Percentile(0.99)) * kNsToMs;
    result.solve_max_ms = static_cast<double>(latency.Max()) * kNsToMs;
    result.solves_per_sec = static_cast<double>(latency.count) / elapsed;
    result.ingest_points_per_sec =
        static_cast<double>(ingested.load()) / elapsed;
    std::printf(
        "under ingest:    %10.0f solves/sec (mean %.3f ms, p50 %.3f ms, "
        "p99 %.3f ms, max %.3f ms) while %0.f pts/sec ingest\n",
        result.solves_per_sec, result.solve_mean_ms, result.solve_p50_ms,
        result.solve_p99_ms, result.solve_max_ms,
        result.ingest_points_per_sec);
    std::filesystem::remove_all(scratch);
  }

  // --- BENCH_solve.json -----------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/BENCH_solve.json";
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"kernel\": \"" << std::string(simd::ActiveKernelName())
       << "\",\n"
       << "  \"n\": " << result.n << ",\n"
       << "  \"dim\": " << result.dim << ",\n"
       << "  \"reps\": " << result.reps << ",\n"
       << "  \"repeated_solve\": {\"cold_ms\": " << result.cold_ms
       << ", \"warm_ms\": " << result.warm_ms
       << ", \"cached_ms\": " << result.cached_ms
       << ", \"cached_speedup_vs_cold\": " << result.cached_speedup_vs_cold
       << "},\n"
       << "  \"cold_grid\": [\n";
  for (size_t i = 0; i < cold_cells.size(); ++i) {
    const ColdCell& c = cold_cells[i];
    json << "    {\"kind\": \"" << c.kind << "\", \"n\": " << c.n
         << ", \"k\": " << c.k << ", \"target\": \"" << c.target
         << "\", \"threads\": " << c.threads
         << ", \"cold_ms\": " << c.cold_ms
         << ", \"speedup_vs_scalar\": " << c.speedup_vs_scalar
         << ", \"parallel_speedup\": " << c.parallel_speedup << "}"
         << (i + 1 < cold_cells.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"under_ingest\": {\"solves_per_sec\": " << result.solves_per_sec
       << ", \"mean_ms\": " << result.solve_mean_ms
       << ", \"p50_ms\": " << result.solve_p50_ms
       << ", \"p99_ms\": " << result.solve_p99_ms
       << ", \"max_ms\": " << result.solve_max_ms
       << ", \"ingest_points_per_sec\": " << result.ingest_points_per_sec
       << "}\n}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  // The acceptance gate of the incremental query path: a cached SOLVE must
  // be at least an order of magnitude cheaper than a cold one.
  if (result.cached_speedup_vs_cold < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cached speedup %.1fx < 10x over cold solves\n",
                 result.cached_speedup_vs_cold);
    return 1;
  }
  // The acceptance gate of the offline kernel routing: a cache-miss SOLVE
  // at the paper-scale cell must beat the (pre-routing-equivalent) scalar
  // target by the requested factor on some SIMD target.
  if (min_cold_speedup > 0.0) {
    if (simd::AvailableKernelTargets().size() < 2) {
      std::fprintf(stderr,
                   "WARN: no SIMD target available on this machine; "
                   "--min-cold-speedup check skipped\n");
      return 0;
    }
    double best = 0.0;
    std::string best_target;
    for (const ColdCell& c : cold_cells) {
      if (c.kind == "SFDM2" && c.n == 16384 && c.k == 20 &&
          c.threads == 1 && c.target != "scalar" &&
          c.speedup_vs_scalar > best) {
        best = c.speedup_vs_scalar;
        best_target = c.target;
      }
    }
    if (best < min_cold_speedup) {
      std::fprintf(stderr,
                   "FAIL: best cold-SOLVE speedup (%s) is %.2fx scalar at "
                   "sfdm2 / n 16384 / k 20, below the %.2fx gate\n",
                   best_target.c_str(), best, min_cold_speedup);
      return 1;
    }
    std::printf("cold-solve gate passed: %s is %.2fx scalar at sfdm2 / "
                "n 16384 / k 20 (>= %.2fx)\n",
                best_target.c_str(), best, min_cold_speedup);
  }
  // The acceptance gate of the rung-parallel query path: 4 solve threads
  // must beat the same target's sequential cold SOLVE by the requested
  // factor at the paper-scale cell.
  if (min_parallel_cold_speedup > 0.0) {
    if (std::thread::hardware_concurrency() < 4) {
      std::fprintf(stderr,
                   "WARN: fewer than 4 hardware threads; "
                   "--min-parallel-cold-speedup check skipped\n");
      return 0;
    }
    double best = 0.0;
    std::string best_target;
    for (const ColdCell& c : cold_cells) {
      if (c.kind == "SFDM2" && c.n == 16384 && c.k == 20 &&
          c.threads == 4 && c.parallel_speedup > best) {
        best = c.parallel_speedup;
        best_target = c.target;
      }
    }
    if (best < min_parallel_cold_speedup) {
      std::fprintf(stderr,
                   "FAIL: best 4-thread cold-SOLVE speedup (%s) is %.2fx "
                   "its 1-thread run at sfdm2 / n 16384 / k 20, below the "
                   "%.2fx gate\n",
                   best_target.c_str(), best, min_parallel_cold_speedup);
      return 1;
    }
    std::printf("parallel cold-solve gate passed: %s at 4 threads is %.2fx "
                "its 1-thread run at sfdm2 / n 16384 / k 20 (>= %.2fx)\n",
                best_target.c_str(), best, min_parallel_cold_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
