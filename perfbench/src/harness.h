#ifndef FDM_PERFBENCH_HARNESS_H_
#define FDM_PERFBENCH_HARNESS_H_

// Shared machinery of the end-to-end benchmark (see perfbench/README.md):
// the task table workloads register into, the `fdm_serve` child-process
// wrapper, the single-threaded pipelined load loop, latency statistics,
// /proc readers, METRICS-json deltas, and the reply oracle.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/solution.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm::bench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

// ---------------------------------------------------------------------------
// Run configuration and results.
// ---------------------------------------------------------------------------

/// How many threads each party gets, chosen so the busy ones fit the
/// machine: one generator thread, the primary's event loops and solve
/// worker (the follower is idle but for its polls).
struct ThreadPlan {
  int nproc = 1;
  int net_threads = 1;
  int solve_workers = 1;
};
ThreadPlan PlanThreads();

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Full set-ups per untraced run (`setup_s` is their median).
  int setups = 9;
  std::string serve_bin;  // path to the built fdm_serve
  std::string work_dir;   // scratch root for session directories
  ThreadPlan threads;
};

/// One metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The request sequence of one timed window, as sent, plus what is needed
/// to rebuild the state it ran against. Filled only by traced runs.
struct Recording {
  /// Requests that build the pre-window state (CREATE, preload OBSERVEBs).
  std::vector<std::string> setup;
  /// The timed window's primary requests (OBSERVEB / SOLVE), in send order.
  std::vector<std::string> window;
  /// Server `--snapshot_every`, mirrored by the in-process replays.
  size_t snapshot_every = 0;
};

/// What one workload run measured. `metrics` holds the end-to-end metrics;
/// the remaining fields feed the traced run's per-layer breakdown.
struct WorkloadRun {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  /// Primary requests completed in the timed window(s) and their rate.
  int64_t window_ops = 0;
  double window_ops_per_s = 0.0;
  double server_cpu_us_per_op = 0.0;
  /// METRICS json of the primary / follower before and after the window
  /// and post-window phases (traced runs use the deltas).
  std::string primary_metrics_before, primary_metrics_after;
  std::string follower_metrics_before, follower_metrics_after;
  std::string kernel_target;
};

/// A workload: generates its inputs from `ctx.seed`, drives `fdm_serve`,
/// checks every answer, and reports. With `rec` non-null the window's
/// request sequence is recorded for the layered replay.
using WorkloadFn = WorkloadRun (*)(const RunContext& ctx, Recording* rec);

struct TaskEntry {
  std::string name;
  WorkloadFn fn;
};
std::vector<TaskEntry>& TaskTable();
bool RegisterTask(const char* name, WorkloadFn fn);
const TaskEntry* FindTask(const std::string& name);

/// Declares and registers a workload task (the task-table idiom: each
/// workload file registers itself, `main` only looks names up).
#define REGISTER_BENCHMARK_TASK(name)                                       \
  ::fdm::bench::WorkloadRun BenchmarkTask_##name(                           \
      const ::fdm::bench::RunContext& ctx, ::fdm::bench::Recording* rec);   \
  static const bool kBenchmarkTask_##name##_registered =                    \
      ::fdm::bench::RegisterTask(#name, &BenchmarkTask_##name);             \
  ::fdm::bench::WorkloadRun BenchmarkTask_##name(                           \
      const ::fdm::bench::RunContext& ctx, ::fdm::bench::Recording* rec)

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Median of repeated samples of one figure (recovery drills, set-ups).
double Median(std::vector<double> values);
/// Nearest-rank percentile of unsorted samples (q in [0,1]).
double Percentile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Data: simulated Adult (sex grouping, m=2, dim 6) with coordinates rounded
// to the text the generator sends, so the server and the in-process
// reference see the same doubles.
// ---------------------------------------------------------------------------

struct PointSet {
  size_t dim = 0;
  std::vector<double> coords;  // row-major
  std::vector<int32_t> groups;
  size_t size() const { return groups.size(); }
  std::span<const double> Row(size_t i) const {
    return {coords.data() + i * dim, dim};
  }
};

PointSet MakeAdultPoints(uint64_t seed, size_t n);

/// Euclidean `algo=sfdm2 ...` spec for `points` (distance bounds estimated
/// from a seeded sample, as a client without the whole stream would).
std::string Sfdm2Spec(const PointSet& points, const std::string& quotas,
                      double eps, uint64_t seed);

/// Appends `<id> <group> <c0> ...\n`.
void AppendPointLine(int64_t id, int32_t group, std::span<const double> c,
                     std::string* out);

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

/// The reply `SOLVE` produces for `solution` on a primary (no trailing \n).
std::string SolveReplyText(const Result<Solution>& solution);

// ---------------------------------------------------------------------------
// fdm_serve child processes.
// ---------------------------------------------------------------------------

struct ServeOptions {
  std::string root;    // primary: --root
  std::string follow;  // follower: --follow=tcp://...
  int net_threads = 1;
  int solve_workers = 1;
  size_t snapshot_every = 0;
  size_t max_resident = 0;  // 0 = unlimited
};

/// One `fdm_serve --listen=0` process. Its stdin stays open (EOF would end
/// the server); `Stop` kills and reaps it. Destruction stops it too.
class ServerProcess {
 public:
  static Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const ServeOptions& options);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// CPU time of every thread (user + sys), nanoseconds, from
  /// /proc/<pid>/task/*/schedstat.
  int64_t CpuNanos() const;
  /// VmHWM in MiB.
  double PeakRssMb() const;
  void Stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// Blocking request/reply client (set-up and post-window phases).
// ---------------------------------------------------------------------------

class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(int port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  /// One request, one reply (reply text without the trailing newline).
  Result<std::string> Call(std::string_view request);
  /// Sends every request pipelined, returns the replies in order.
  Result<std::vector<std::string>> CallMany(
      const std::vector<std::string>& requests);

 private:
  explicit Client(int fd) : fd_(fd) {}
  Status SendAll(const std::string& bytes);
  Result<std::string> RecvFrame();
  int fd_ = -1;
  std::string in_;
};

/// `Call` that treats anything but `OK...` as an error.
Result<std::string> CallOk(Client& client, std::string_view request);

// ---------------------------------------------------------------------------
// The closed-loop pipelined load loop.
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t { kObserve, kSolve, kReplica };

/// Per-request bookkeeping carried from send to reply.
struct Op {
  OpKind kind = OpKind::kSolve;
  int32_t session = 0;
  int32_t points = 0;    // OBSERVEB lines
  int32_t expect_dup = 0;
  int64_t tag = 0;       // workload-defined (e.g. the solve epoch)
};

/// One connection's traffic source. `Next` fills the next request (text and
/// op) or says there is none right now (`kIdle`) or ever again (`kDone`).
class Stream {
 public:
  enum class Poll { kRequest, kIdle, kDone };
  virtual ~Stream() = default;
  virtual Poll Next(std::string* text, Op* op) = 0;
  virtual void OnReply(const Op& op, std::string_view reply,
                       double latency_ms) = 0;
};

struct LoopConn {
  int port = 0;
  Stream* stream = nullptr;
  int depth = 1;       // requests kept in flight
  bool timed = true;   // counts toward the window's ops
};

struct LoopStats {
  int64_t ops = 0;  // replies on timed connections
  double elapsed_s = 0.0;
};

/// Drives every connection from one thread until each stream is done and
/// drained, or `deadline` passes (then streams stop being asked and the
/// in-flight requests drain). `record`, when non-null, receives each timed
/// connection's request text in send order.
Result<LoopStats> RunLoop(std::vector<LoopConn> conns,
                          Clock::time_point deadline,
                          std::vector<std::string>* record);

// ---------------------------------------------------------------------------
// Latency/throughput accounting shared by the workloads.
// ---------------------------------------------------------------------------

/// Every timed reply's latency, and the points the OBSERVEBs acknowledged.
struct Tally {
  std::vector<float> ingest_ms;
  std::vector<float> solve_ms;
  int64_t ingest_points = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr
  void Fail(std::string why);
  void RecordIngest(int points, double ms);
  void RecordSolve(double ms);
};

/// A window's end-to-end figures over the whole window: rates are totals
/// over `window_s`, percentiles are taken over every sample, and CPU per
/// op is the server's CPU over the window (`cpu_ns`) per reply.
struct WindowSummary {
  double ingest_pts_per_s = 0.0;
  double ingest_p50_ms = 0.0;
  double ingest_p99_ms = 0.0;
  double solve_per_s = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
  double cpu_us_per_op = 0.0;
};
WindowSummary Summarize(const Tally& tally, double window_s, int64_t cpu_ns);

/// Checks an `OK kept=K dup=D` reply against the op's expectation.
bool IngestReplyOk(const Op& op, std::string_view reply);

// ---------------------------------------------------------------------------
// METRICS json and machine facts.
// ---------------------------------------------------------------------------

/// Counter or gauge value by name (0 when absent).
double JsonScalar(const std::string& json, const std::string& name);
/// Histogram field (`count`, `sum`, ...) by name (0 when absent).
double JsonHistogram(const std::string& json, const std::string& name,
                     const std::string& field);
std::string JsonInfo(const std::string& json, const std::string& name);

/// `METRICS json` payload (without the `OK `).
Result<std::string> ScrapeMetrics(Client& client);

std::string CpuModel();
std::string FilesystemType(const std::string& path);

/// Removes and recreates `dir`.
Status ResetDir(const std::string& dir);

}  // namespace fdm::bench

#endif  // FDM_PERFBENCH_HARNESS_H_
