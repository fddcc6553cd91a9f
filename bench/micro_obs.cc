// Observability-overhead microbenchmark: raw cost of the metric
// primitives, and ingest throughput with the instrumentation compiled in
// vs out. Emits machine-readable BENCH_obs.json (default:
// results/BENCH_obs.json); the release CI job runs this binary from an
// FDM_NO_METRICS build first to produce a baseline, then gates the
// metrics-enabled build against it.
//
//   ./micro_obs [--n=60000] [--dim=8] [--reps=7] [--out=results]
//               [--baseline=PATH] [--max-overhead=0.05]
//
// Sections:
//   record_ops      ns/op of the primitives a hot path pays: Counter::Add
//                   (registry lookup amortized by a function-local
//                   static), a pre-cached thread-local cell bump (the
//                   ultra-hot-site idiom), and Histogram::Record
//   ingest_batched  SFDM-2 ObserveBatch(256) points/sec — THE gated
//                   number; median of --reps fresh-sink passes
//   ingest_element  SFDM-2 per-element Observe() points/sec
//   ingest_durable  DurableSession::Ingest(256) points/sec with the
//                   WAL on (fsync-free batches)
//   scrape          RenderPrometheus cost with the registry populated
//
// --baseline=PATH names a BENCH_obs.json written by the *other* build
// configuration; with --max-overhead=X the run exits non-zero when this
// build's ingest_batched throughput falls below (1 - X) x the baseline's.
// One process cannot host both configurations (the kill switch is
// compile-time), which is why the comparison crosses two binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/sfdm2.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "obs/metrics.h"
#include "service/durable_session.h"
#include "util/argparse.h"
#include "util/timer.h"

namespace fdm {
namespace {

/// Pulls `"points_per_sec": <num>` out of the `"ingest_batched"` object of
/// a BENCH_obs.json without a JSON library: find the section key, then the
/// field key after it, then strtod. Returns 0 on any mismatch.
double BaselineBatchedPps(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0.0;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const size_t section = text.find("\"ingest_batched\"");
  if (section == std::string::npos) return 0.0;
  const std::string key = "\"points_per_sec\":";
  const size_t field = text.find(key, section);
  if (field == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + field + key.size(), nullptr);
}

/// Feeds the dataset to `apply` in 256-point batches; returns
/// points/sec.
template <typename Apply>
double FeedBatched(const Dataset& ds, Apply&& apply) {
  std::vector<StreamPoint> batch;
  batch.reserve(256);
  Timer timer;
  for (size_t i = 0; i < ds.size(); ++i) {
    batch.push_back(ds.At(i));
    if (batch.size() == 256 || i + 1 == ds.size()) {
      apply(std::span<const StreamPoint>(batch));
      batch.clear();
    }
  }
  return static_cast<double>(ds.size()) / timer.ElapsedSeconds();
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const size_t n = static_cast<size_t>(args.GetInt("n", 60000));
  const size_t dim = static_cast<size_t>(args.GetInt("dim", 8));
  const int reps = static_cast<int>(args.GetInt("reps", 7));
  const std::string out_dir = args.GetString("out", "results");
  const std::string baseline_path = args.GetString("baseline", "");
  const double max_overhead = args.GetDouble("max-overhead", 0.0);

  std::printf("=== micro_obs: observability overhead ===\n");
  std::printf("metrics_enabled=%d n=%zu dim=%zu reps=%d\n\n",
              obs::kMetricsEnabled ? 1 : 0, n, dim, reps);

  // --- Primitive record ops -------------------------------------------
  constexpr uint64_t kOps = 1u << 22;
  double counter_add_ns = 0.0;
  double cached_cell_ns = 0.0;
  double histogram_record_ns = 0.0;
  {
    obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
        "fdm_bench_obs_ops_total", "micro_obs record-op loop counter");
    Timer timer;
    for (uint64_t i = 0; i < kOps; ++i) counter.Add(1);
    counter_add_ns = static_cast<double>(timer.ElapsedNanos()) / kOps;
  }
#ifndef FDM_NO_METRICS
  {
    // The ultra-hot-site idiom: resolve the thread's cell once, bump it
    // directly per event (what the kernel scan counters do).
    std::atomic<uint64_t>& cell =
        obs::MetricsRegistry::Global()
            .GetCounter("fdm_bench_obs_cell_total",
                        "micro_obs cached-cell loop counter")
            .ThreadLocalCell();
    Timer timer;
    for (uint64_t i = 0; i < kOps; ++i) obs::BumpCell(cell);
    cached_cell_ns = static_cast<double>(timer.ElapsedNanos()) / kOps;
  }
#endif
  {
    obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
        "fdm_bench_obs_record_ns", "micro_obs histogram record loop");
    Timer timer;
    for (uint64_t i = 0; i < kOps; ++i) hist.Record(i & 0xFFFFF);
    histogram_record_ns = static_cast<double>(timer.ElapsedNanos()) / kOps;
  }
  std::printf("record ops:      counter %.2f ns  cached cell %.2f ns  "
              "histogram %.2f ns\n",
              counter_add_ns, cached_cell_ns, histogram_record_ns);

  // --- Ingest throughput ----------------------------------------------
  BlobsOptions data_options;
  data_options.n = n;
  data_options.dim = dim;
  data_options.num_groups = 2;
  data_options.seed = 1;
  const Dataset ds = MakeBlobs(data_options);
  const DistanceBounds bounds = EstimateDistanceBounds(ds, 1000, 1);
  FairnessConstraint constraint;
  constraint.quotas = {10, 10};
  StreamingOptions streaming;
  streaming.d_min = bounds.min;
  streaming.d_max = bounds.max;

  // The gated number uses the median rep, not the best: the CI gate is a
  // ratio against a separately-run baseline binary, and best-of amplifies
  // one lucky outlier on either side into a spurious pass or failure.
  std::vector<double> batched_runs;
  for (int r = 0; r < reps; ++r) {
    auto sink =
        Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), streaming);
    if (!sink.ok()) {
      std::fprintf(stderr, "create: %s\n", sink.status().ToString().c_str());
      return 1;
    }
    batched_runs.push_back(FeedBatched(
        ds, [&](std::span<const StreamPoint> b) { sink->ObserveBatch(b); }));
  }
  std::sort(batched_runs.begin(), batched_runs.end());
  const double batched_pps = batched_runs[batched_runs.size() / 2];
  std::printf("ingest batched:  %10.0f points/sec (ObserveBatch 256, "
              "median of %d)\n",
              batched_pps, reps);

  double element_pps = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto sink =
        Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), streaming);
    if (!sink.ok()) return 1;
    Timer timer;
    for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));
    element_pps = std::max(
        element_pps, static_cast<double>(ds.size()) / timer.ElapsedSeconds());
  }
  std::printf("ingest element:  %10.0f points/sec (per-element Observe, "
              "best of %d)\n",
              element_pps, reps);

  double durable_pps = 0.0;
  {
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "fdm_micro_obs").string();
    std::filesystem::remove_all(scratch);
    const std::string spec =
        "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
        " quotas=10,10 dmin=" + std::to_string(bounds.min) +
        " dmax=" + std::to_string(bounds.max);
    for (int r = 0; r < reps; ++r) {
      const std::string dir = scratch + "/rep" + std::to_string(r);
      auto session = DurableSession::Create(dir, spec);
      if (!session.ok()) {
        std::fprintf(stderr, "durable: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      durable_pps = std::max(
          durable_pps, FeedBatched(ds, [&](std::span<const StreamPoint> b) {
            (void)session->Ingest(b, /*as_batch=*/true);
          }));
    }
    std::filesystem::remove_all(scratch);
    std::printf("ingest durable:  %10.0f points/sec (DurableSession + WAL, "
                "best of %d)\n",
                durable_pps, reps);
  }

  // --- Scrape cost -----------------------------------------------------
  double scrape_us = 0.0;
  {
    constexpr int kScrapes = 100;
    size_t rendered_bytes = 0;
    Timer timer;
    for (int i = 0; i < kScrapes; ++i) {
      rendered_bytes = obs::MetricsRegistry::Global().RenderPrometheus().size();
    }
    scrape_us = static_cast<double>(timer.ElapsedNanos()) / kScrapes / 1000.0;
    std::printf("scrape:          %10.1f us/RenderPrometheus (%zu bytes)\n",
                scrape_us, rendered_bytes);
  }

  // --- BENCH_obs.json --------------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/BENCH_obs.json";
  {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"metrics_enabled\": "
         << (obs::kMetricsEnabled ? "true" : "false") << ",\n"
         << "  \"kernel\": \"" << std::string(simd::ActiveKernelName())
         << "\",\n"
         << "  \"n\": " << n << ",\n"
         << "  \"dim\": " << dim << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"record_ops\": {\"counter_add_ns\": " << counter_add_ns
         << ", \"cached_cell_ns\": " << cached_cell_ns
         << ", \"histogram_record_ns\": " << histogram_record_ns << "},\n"
         << "  \"ingest_batched\": {\"points_per_sec\": " << batched_pps
         << "},\n"
         << "  \"ingest_element\": {\"points_per_sec\": " << element_pps
         << "},\n"
         << "  \"ingest_durable\": {\"points_per_sec\": " << durable_pps
         << "},\n"
         << "  \"scrape\": {\"render_prometheus_us\": " << scrape_us
         << "}\n}\n";
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  // --- Cross-configuration overhead gate ------------------------------
  if (!baseline_path.empty() && max_overhead > 0.0) {
    const double baseline_pps = BaselineBatchedPps(baseline_path);
    if (baseline_pps <= 0.0) {
      std::fprintf(stderr, "FAIL: no ingest_batched points_per_sec in %s\n",
                   baseline_path.c_str());
      return 1;
    }
    const double floor = (1.0 - max_overhead) * baseline_pps;
    if (batched_pps < floor) {
      std::fprintf(stderr,
                   "FAIL: batched ingest %.0f pts/sec is below %.0f "
                   "(baseline %.0f x %.2f) — metrics overhead exceeds "
                   "%.0f%%\n",
                   batched_pps, floor, baseline_pps, 1.0 - max_overhead,
                   max_overhead * 100.0);
      return 1;
    }
    std::printf("overhead gate passed: %.0f pts/sec >= %.2f x baseline "
                "%.0f\n",
                batched_pps, 1.0 - max_overhead, baseline_pps);
  }
  return 0;
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
