// durable_ingest: two closed-loop connections (one request in flight
// each), each streaming its own `dedup=on`
// SFDM-2 session of simulated Adult in OBSERVEB batches of 256 lines, 10%
// of which re-send ids already sent, with one SOLVE per 32 batches. The
// server snapshots every 64k records; a follower tails the primary, polled
// with REPLICA after every 32 batches of a session. The stream runs in
// rounds of identical input (fresh sessions each round) until the window
// is spent; each round ends with recovery and catch-up, so those two are
// medians over equal work. Peak RSS is read after the first `kRssRounds`
// rounds, a fixed amount of work.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fleet.h"
#include "harness.h"
#include "service/sink_spec.h"

namespace fdm::bench {
namespace {

constexpr int kConns = 2;
constexpr int kDepth = 1;
constexpr int kLines = 256;
constexpr int kDups = 26;  // ~10% of each batch after the first
constexpr int kBatches = 782;
constexpr int kSolveEvery = 32;
constexpr size_t kSnapshotEvery = 1u << 16;
constexpr int kRssRounds = 3;  // peak RSS is read after this many rounds
/// Rounds continue past the window until the SOLVE latencies, one per 32
/// batches, have this many samples for their percentiles.
constexpr size_t kMinSamples = 1000;
constexpr size_t kMaxResident = kConns;  // finished rounds spill to disk

/// One connection's input: pre-formatted batch bodies plus, for the
/// oracle, which ids each batch carries new.
struct Input {
  PointSet points;
  std::vector<std::string> bodies;  // point lines of batch b
  std::vector<int> dups;            // expected dup count of batch b
  std::vector<int64_t> new_begin;   // first new id of batch b
  std::vector<int> new_count;
};

Input MakeInput(uint64_t seed) {
  Input in;
  const size_t fresh = kLines + static_cast<size_t>(kBatches - 1) *
                                    static_cast<size_t>(kLines - kDups);
  in.points = MakeAdultPoints(seed, fresh);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  int64_t next = 0;
  for (int b = 0; b < kBatches; ++b) {
    const int dups = b == 0 ? 0 : kDups;
    const int count = kLines - dups;
    std::string body;
    in.new_begin.push_back(next);
    in.new_count.push_back(count);
    for (int i = 0; i < count; ++i, ++next) {
      const size_t row = static_cast<size_t>(next);
      AppendPointLine(next, in.points.groups[row], in.points.Row(row), &body);
    }
    for (int i = 0; i < dups; ++i) {
      const size_t row = rng() % static_cast<size_t>(in.new_begin.back());
      AppendPointLine(static_cast<int64_t>(row), in.points.groups[row],
                      in.points.Row(row), &body);
    }
    in.bodies.push_back(std::move(body));
    in.dups.push_back(dups);
  }
  return in;
}

/// SOLVE replies of one round, by connection: (batches before, reply).
using SolveLog = std::vector<std::vector<std::pair<int, std::string>>>;

class IngestStream final : public Stream {
 public:
  IngestStream(const Input* in, std::string name, int conn,
               std::vector<int>* replica_queue, Tally* tally, SolveLog* log)
      : in_(in),
        name_(std::move(name)),
        conn_(conn),
        replica_queue_(replica_queue),
        tally_(tally),
        log_(log) {}

  Poll Next(std::string* text, Op* op) override {
    op->session = conn_;
    if (solve_due_) {
      solve_due_ = false;
      text->append("SOLVE ").append(name_);
      op->kind = OpKind::kSolve;
      op->tag = batch_;
      return Poll::kRequest;
    }
    if (batch_ == kBatches) return Poll::kDone;
    const int b = batch_++;
    text->append("OBSERVEB ")
        .append(name_)
        .append(" ")
        .append(std::to_string(kLines))
        .append("\n")
        .append(in_->bodies[static_cast<size_t>(b)]);
    op->kind = OpKind::kObserve;
    op->points = kLines;
    op->expect_dup = in_->dups[static_cast<size_t>(b)];
    solve_due_ = batch_ % kSolveEvery == 0;
    return Poll::kRequest;
  }

  void OnReply(const Op& op, std::string_view reply,
               double latency_ms) override {
    ++tally_->attempted;
    if (op.kind == OpKind::kObserve) {
      tally_->RecordIngest(op.points, latency_ms);
      if (!IngestReplyOk(op, reply)) {
        tally_->Fail("OBSERVEB: " + std::string(reply));
      }
      return;
    }
    tally_->RecordSolve(latency_ms);
    (*log_)[static_cast<size_t>(conn_)].emplace_back(
        static_cast<int>(op.tag), std::string(reply));
    replica_queue_->push_back(conn_);  // the follower catches up now
  }

 private:
  const Input* in_;
  std::string name_;
  int conn_;
  std::vector<int>* replica_queue_;
  Tally* tally_;
  SolveLog* log_;
  int batch_ = 0;
  bool solve_due_ = false;
};

/// Sends `REPLICA <session>` to the follower whenever an ingest stream
/// asks for it.
class ReplicaStream final : public Stream {
 public:
  ReplicaStream(std::vector<int>* queue, const std::vector<std::string>* names,
                Tally* tally)
      : queue_(queue), names_(names), tally_(tally) {}

  Poll Next(std::string* text, Op* op) override {
    if (queue_->empty()) return Poll::kIdle;
    op->kind = OpKind::kReplica;
    op->session = queue_->front();
    queue_->erase(queue_->begin());
    text->append("REPLICA ").append((*names_)[static_cast<size_t>(op->session)]);
    return Poll::kRequest;
  }

  void OnReply(const Op&, std::string_view reply, double) override {
    ++tally_->attempted;
    if (reply.rfind("OK", 0) != 0) {
      tally_->Fail("REPLICA: " + std::string(reply));
    }
  }

 private:
  std::vector<int>* queue_;
  const std::vector<std::string>* names_;
  Tally* tally_;
};

/// Expected SOLVE replies of one connection's stream: after `b` batches
/// for every SOLVE point, plus the final state.
std::vector<std::string> Reference(const Input& in, const std::string& spec,
                                   std::string* final_reply) {
  std::vector<std::string> replies(kBatches + 1);
  auto sink = MakeSinkFromSpec(spec);
  if (!sink.ok()) {
    *final_reply = "ERR " + sink.status().ToString();
    return replies;
  }
  std::vector<StreamPoint> batch;
  for (int b = 0; b < kBatches; ++b) {
    batch.clear();
    for (int i = 0; i < in.new_count[static_cast<size_t>(b)]; ++i) {
      const int64_t id = in.new_begin[static_cast<size_t>(b)] + i;
      const size_t row = static_cast<size_t>(id);
      batch.push_back(StreamPoint{id, in.points.groups[row], in.points.Row(row)});
    }
    (*sink)->ObserveBatch(batch);
    if ((b + 1) % kSolveEvery == 0) {
      replies[static_cast<size_t>(b + 1)] = SolveReplyText((*sink)->Solve());
    }
  }
  *final_reply = SolveReplyText((*sink)->Solve());
  return replies;
}

}  // namespace

REGISTER_BENCHMARK_TASK(durable_ingest) {
  WorkloadRun run;
  const auto fail = [&](const Status& s) {
    std::fprintf(stderr, "durable_ingest: %s\n", s.ToString().c_str());
    run.correct = false;
    run.metrics.clear();
    return run;
  };

  // Set-up: inputs for both connections, primary + follower.
  std::vector<double> setup_s;
  std::vector<Input> inputs;
  std::string spec;
  Result<Fleet> fleet = Status::Internal("no setup ran");
  for (int i = 0; i < ctx.setups; ++i) {
    if (fleet.ok()) fleet->Stop();
    const Clock::time_point start = Clock::now();
    inputs.clear();
    for (int c = 0; c < kConns; ++c) {
      inputs.push_back(MakeInput(ctx.seed * 1000 + static_cast<uint64_t>(c)));
    }
    spec = Sfdm2Spec(inputs[0].points, "10,10", 0.1, ctx.seed) + " dedup=on";
    fleet = StartFleet(ctx, ctx.work_dir + "/durable_ingest", kSnapshotEvery,
                       kMaxResident);
    if (!fleet.ok()) return fail(fleet.status());
    setup_s.push_back(SecondsSince(start));
  }
  if (rec != nullptr) rec->snapshot_every = kSnapshotEvery;

  auto before = ScrapeMetrics(*fleet->admin);
  if (!before.ok()) return fail(before.status());
  auto fbefore = ScrapeMetrics(*fleet->follower_admin);
  if (!fbefore.ok()) return fail(fbefore.status());
  run.primary_metrics_before = *before;
  run.follower_metrics_before = *fbefore;

  Tally tally;
  std::vector<double> recoveries, catchups;
  std::vector<SolveLog> logs;
  std::vector<std::vector<std::string>> finals;
  double stream_s = 0.0;
  double peak_rss = 0.0;
  int64_t ops = 0;
  int64_t cpu_ns = 0;
  for (int round = 0;
       stream_s < ctx.seconds || tally.solve_ms.size() < kMinSamples;
       ++round) {
    std::vector<std::string> names;
    std::vector<std::string> creates;
    for (int c = 0; c < kConns; ++c) {
      names.push_back("d" + std::to_string(round) + "_" + std::to_string(c));
      creates.push_back("CREATE " + names.back() + " " + spec);
      if (auto r = CallOk(*fleet->admin, creates.back()); !r.ok()) {
        return fail(r.status());
      }
    }
    if (rec != nullptr && round == 0) rec->setup = creates;
    logs.emplace_back(kConns);
    std::vector<int> replica_queue;
    std::vector<std::unique_ptr<Stream>> streams;
    std::vector<LoopConn> conns;
    for (int c = 0; c < kConns; ++c) {
      streams.push_back(std::make_unique<IngestStream>(
          &inputs[static_cast<size_t>(c)], names[static_cast<size_t>(c)], c,
          &replica_queue, &tally, &logs.back()));
      conns.push_back(LoopConn{fleet->primary->port(), streams.back().get(),
                               kDepth, true});
    }
    streams.push_back(
        std::make_unique<ReplicaStream>(&replica_queue, &names, &tally));
    conns.push_back(LoopConn{fleet->follower->port(), streams.back().get(),
                             kConns, false});
    const int64_t cpu_before = fleet->primary->CpuNanos();
    auto loop = RunLoop(conns, Clock::now() + std::chrono::seconds(150),
                        rec != nullptr && round == 0 ? &rec->window : nullptr);
    if (!loop.ok()) return fail(loop.status());
    cpu_ns += fleet->primary->CpuNanos() - cpu_before;
    ops += loop->ops;
    stream_s += loop->elapsed_s;

    finals.emplace_back();
    auto recovery = Recover(*fleet, names, &finals.back());
    if (!recovery.ok()) return fail(recovery.status());
    recoveries.push_back(*recovery);
    auto catchup = CatchUp(*fleet, names, finals.back());
    if (!catchup.ok()) return fail(catchup.status());
    catchups.push_back(*catchup);
    if (round + 1 == kRssRounds) peak_rss = fleet->primary->PeakRssMb();
    std::fprintf(stderr,
                 "durable_ingest: round %d: %.2f s streaming, recovery %.3f "
                 "s, catch-up %.3f s\n",
                 round, loop->elapsed_s, recoveries.back(), catchups.back());
  }
  auto after = ScrapeMetrics(*fleet->admin);
  if (!after.ok()) return fail(after.status());
  auto fafter = ScrapeMetrics(*fleet->follower_admin);
  if (!fafter.ok()) return fail(fafter.status());
  run.primary_metrics_after = *after;
  run.follower_metrics_after = *fafter;
  run.kernel_target = JsonInfo(*after, "fdm_kernel_target");
  fleet->Stop();

  // Oracle: every round replays the same input, so one reference serves
  // every round's SOLVE replies and final answers.
  for (int c = 0; c < kConns; ++c) {
    std::string want_final;
    const std::vector<std::string> want =
        Reference(inputs[static_cast<size_t>(c)], spec, &want_final);
    for (size_t r = 0; r < logs.size(); ++r) {
      for (const auto& [batches, reply] : logs[r][static_cast<size_t>(c)]) {
        if (reply != want[static_cast<size_t>(batches)]) {
          tally.Fail("round " + std::to_string(r) + " SOLVE after " +
                     std::to_string(batches) + " batches: got '" +
                     reply.substr(0, 80) + "'");
        }
      }
      ++tally.attempted;
      if (finals[r][static_cast<size_t>(c)] != want_final) {
        tally.Fail("round " + std::to_string(r) + " final: got '" +
                   finals[r][static_cast<size_t>(c)].substr(0, 80) +
                   "' want '" + want_final.substr(0, 80) + "'");
      }
    }
  }

  const WindowSummary w = Summarize(tally, stream_s, cpu_ns);
  run.window_ops = ops;
  run.window_ops_per_s = static_cast<double>(ops) / stream_s;
  run.server_cpu_us_per_op = w.cpu_us_per_op;
  run.attempted = tally.attempted;
  run.failed = tally.failed;
  run.correct = tally.failed == 0;
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "durable_ingest: %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "durable_ingest: %zu rounds, %lld ops in %.2fs streaming\n",
               logs.size(), static_cast<long long>(ops), stream_s);
  run.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"ingest_pts_per_s", w.ingest_pts_per_s, "pts/s"},
      {"ingest_ack_p50_ms", w.ingest_p50_ms, "ms"},
      {"ingest_ack_p99_ms", w.ingest_p99_ms, "ms"},
      {"solve_per_s", w.solve_per_s, "1/s"},
      {"solve_p50_ms", w.solve_p50_ms, "ms"},
      {"solve_p99_ms", w.solve_p99_ms, "ms"},
      {"recovery_s", Median(recoveries), "s"},
      {"replica_catchup_s", Median(catchups), "s"},
      {"server_cpu_us_per_op", w.cpu_us_per_op, "us"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  return run;
}

}  // namespace fdm::bench
