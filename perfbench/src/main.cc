// fdm_bench — the end-to-end benchmark's load generator and tracer.
//
//   fdm_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --serve_bin=<path to fdm_serve> --work_dir=<scratch dir>
//             [--commit=<id>]
//   fdm_bench --list
//
// Prints one `{"machine": ...}` line describing where it ran, then, as the
// last line, `{"correct", "attempted", "failed", "metrics"}`: the
// end-to-end metrics with --trace=0, the per-layer breakdown with
// --trace=1. Exit code 0 iff the run completed (a wrong answer still
// completes: it shows as correct=false). perfbench/run.py builds this
// binary and fdm_serve and is the usual entry point.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace fdm::bench {
namespace {

constexpr double kTraceSeconds = 5.0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// `--key=value` or `--key value`.
std::string Arg(int argc, char** argv, const std::string& key,
                const std::string& fallback) {
  const std::string flag = "--" + key;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
    if (a == flag && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--list") {
      for (const TaskEntry& t : TaskTable()) std::printf("%s\n", t.name.c_str());
      return 0;
    }
  }
  RunContext ctx;
  ctx.workload = Arg(argc, argv, "workload", "");
  ctx.seed = std::strtoull(Arg(argc, argv, "seed", "1").c_str(), nullptr, 10);
  ctx.seconds = std::atof(Arg(argc, argv, "seconds", "10").c_str());
  const bool trace = Arg(argc, argv, "trace", "0") == "1";
  ctx.serve_bin = Arg(argc, argv, "serve_bin", "");
  ctx.work_dir = Arg(argc, argv, "work_dir", "");
  if (trace) ctx.setups = 1;
  // The traced run executes the workload twice and replays its window at
  // four layers; a shorter window keeps that within the run-time budget
  // (per-layer figures are per-op ratios, not window totals).
  if (trace) ctx.seconds = std::min(ctx.seconds, kTraceSeconds);
  ctx.threads = PlanThreads();
  const TaskEntry* task = FindTask(ctx.workload);
  if (task == nullptr || ctx.serve_bin.empty() || ctx.work_dir.empty() ||
      ctx.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: fdm_bench --workload=<name> --seed=N --seconds=S "
                 "--trace=0|1 --serve_bin=PATH --work_dir=DIR\n");
    return 2;
  }
  if (Status s = ResetDir(ctx.work_dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  TraceResult result;
  if (trace) {
    result = RunTraced(ctx, *task);
  } else {
    WorkloadRun run = task->fn(ctx, nullptr);
    result.run = std::move(run);
    result.metrics = result.run.metrics;
  }
  const WorkloadRun& run = result.run;
  if (result.metrics.empty()) {
    std::fprintf(stderr, "fdm_bench: workload %s did not complete\n",
                 ctx.workload.c_str());
    return 1;
  }

  std::printf(
      "{\"machine\": {\"nproc\": %d, \"cpu\": %s, \"kernel_target\": %s, "
      "\"build_type\": %s, \"session_fs\": %s, \"commit\": %s, "
      "\"generator_threads\": 1, \"net_threads\": %d, \"solve_workers\": %d}, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      ctx.threads.nproc, JsonString(CpuModel()).c_str(),
      JsonString(run.kernel_target).c_str(),
      JsonString(FDM_BENCH_BUILD_TYPE).c_str(),
      JsonString(FilesystemType(ctx.work_dir)).c_str(),
      JsonString(Arg(argc, argv, "commit", "unknown")).c_str(),
      ctx.threads.net_threads,
      ctx.threads.solve_workers, JsonString(ctx.workload).c_str(),
      static_cast<unsigned long long>(ctx.seed),
      JsonNumber(ctx.seconds).c_str(), trace ? 1 : 0);

  std::string line = "{\"correct\": ";
  line += run.correct && run.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.attempted);
  line += ", \"failed\": " + std::to_string(run.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::remove_all(ctx.work_dir, ec);  // no session data left
  return 0;
}

}  // namespace
}  // namespace fdm::bench

int main(int argc, char** argv) { return fdm::bench::Main(argc, argv); }
