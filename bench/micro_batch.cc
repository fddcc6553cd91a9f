// Batched-ingestion throughput microbenchmark (not a paper figure).
//
// Measures stream-phase points/sec of the StreamSink ingestion engine on a
// synthetic stream, sweeping batch size {1, 64, 1024} × process-wide
// width {1, 4} (`Parallelism::SetThreads`) for SFDM2 (the paper's
// flagship) and the unconstrained Algorithm 1. Batch size 1 is the
// per-element `Observe` path — the
// pre-refactor baseline every other row is compared against. The outputs
// are bit-identical across all rows (the StreamSink contract); only the
// cost profile changes.
//
//   ./micro_batch [--n=100000] [--dim=16] [--k=20] [--eps=0.1] [--m=2]

#include <cstdio>
#include <string>
#include <vector>

#include "core/parallelism.h"
#include "core/sfdm2.h"
#include "core/stream_sink.h"
#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "util/argparse.h"
#include "util/check.h"
#include "util/timer.h"

namespace fdm {
namespace {

struct MicroOptions {
  size_t n = 100000;
  size_t dim = 16;
  int k = 20;
  int m = 2;
  double epsilon = 0.1;
};

/// Streams the whole permuted dataset into `sink`; returns points/sec.
double IngestAll(StreamSink& sink, const Dataset& ds,
                 const std::vector<size_t>& order, size_t batch_size) {
  Timer timer;
  IngestStream(sink, ds, order, batch_size);
  return static_cast<double>(ds.size()) / timer.ElapsedSeconds();
}

void Report(const char* algorithm, size_t batch, int threads,
            double points_per_sec, double baseline) {
  std::printf("%-12s batch=%-5zu threads=%d  %12.0f points/sec  %6.2fx\n",
              algorithm, batch, threads, points_per_sec,
              baseline > 0 ? points_per_sec / baseline : 1.0);
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  MicroOptions o;
  o.n = static_cast<size_t>(args.GetInt("n", static_cast<int64_t>(o.n)));
  o.dim = static_cast<size_t>(args.GetInt("dim", static_cast<int64_t>(o.dim)));
  o.k = static_cast<int>(args.GetInt("k", o.k));
  o.m = static_cast<int>(args.GetInt("m", o.m));
  o.epsilon = args.GetDouble("eps", o.epsilon);

  BlobsOptions data_options;
  data_options.n = o.n;
  data_options.dim = o.dim;
  data_options.num_groups = o.m;
  data_options.seed = 1;
  const Dataset ds = MakeBlobs(data_options);
  const std::vector<size_t> order = StreamOrder(ds.size(), 1);
  const DistanceBounds bounds = EstimateDistanceBounds(ds, 1000, 1);

  std::printf("=== micro_batch: StreamSink ingestion throughput ===\n");
  std::printf("n=%zu dim=%zu k=%d m=%d eps=%.2f kernel=%.*s (speedups vs "
              "batch=1, threads=1 per algorithm)\n\n",
              o.n, o.dim, o.k, o.m, o.epsilon,
              static_cast<int>(simd::ActiveKernelName().size()),
              simd::ActiveKernelName().data());

  const size_t kBatchSizes[] = {1, 64, 1024};
  const int kThreadCounts[] = {1, 4};

  // --- Algorithm 1 (unconstrained streaming) ---
  double baseline = 0.0;
  for (const int threads : kThreadCounts) {
    for (const size_t batch : kBatchSizes) {
      if (batch == 1 && threads > 1) continue;  // Observe path is 1-thread
      StreamingOptions streaming;
      streaming.epsilon = o.epsilon;
      streaming.d_min = bounds.min;
      streaming.d_max = bounds.max;
      FDM_CHECK(Parallelism::SetThreads(threads).ok());
      auto algo = StreamingDm::Create(o.k, ds.dim(), ds.metric_kind(),
                                      streaming);
      if (!algo.ok()) {
        std::fprintf(stderr, "StreamingDm: %s\n",
                     algo.status().ToString().c_str());
        return 1;
      }
      const double pps = IngestAll(*algo, ds, order, batch);
      if (batch == 1 && threads == 1) baseline = pps;
      Report("StreamingDM", batch, threads, pps, baseline);
    }
  }
  std::printf("\n");

  // --- SFDM2 ---
  // Equal representation distributes the remainder so Σ quotas == k and
  // the SFDM2 rows run at exactly the k the banner reports.
  const auto constraint_result = EqualRepresentation(o.k, o.m);
  if (!constraint_result.ok()) {
    std::fprintf(stderr, "constraint: %s\n",
                 constraint_result.status().ToString().c_str());
    return 1;
  }
  const FairnessConstraint& constraint = constraint_result.value();
  baseline = 0.0;
  for (const int threads : kThreadCounts) {
    for (const size_t batch : kBatchSizes) {
      if (batch == 1 && threads > 1) continue;
      StreamingOptions streaming;
      streaming.epsilon = o.epsilon;
      streaming.d_min = bounds.min;
      streaming.d_max = bounds.max;
      FDM_CHECK(Parallelism::SetThreads(threads).ok());
      auto algo = Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(),
                                streaming);
      if (!algo.ok()) {
        std::fprintf(stderr, "Sfdm2: %s\n", algo.status().ToString().c_str());
        return 1;
      }
      const double pps = IngestAll(*algo, ds, order, batch);
      if (batch == 1 && threads == 1) baseline = pps;
      Report("SFDM2", batch, threads, pps, baseline);
    }
  }
  return 0;
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
