// cached_reads: 32 preloaded SFDM-2 sessions of simulated Adult (sex, m=2,
// quotas 10,10, Euclidean, dim 6). Two connections each keep 16 requests
// in flight; 99% are SOLVE on a random session, 1% a 16-point OBSERVEB
// that makes that session's next SOLVE a warm-memo miss. Each connection
// owns half of the sessions, so per-connection FIFO order fixes the state
// every SOLVE answers from and every reply can be checked.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fleet.h"
#include "harness.h"
#include "service/sink_spec.h"

namespace fdm::bench {
namespace {

constexpr int kSessions = 32;
constexpr int kConns = 2;
constexpr int kDepth = 16;
constexpr size_t kPreload = 2000;
constexpr size_t kExtra = 24000;  // window points per session before reuse
constexpr size_t kRows = kPreload + kExtra;
constexpr int kBatch = 16;
constexpr int kTailBatch = 256;
constexpr int kDrills = 8;  // recovery + catch-up samples per run
/// Requests before each drill. Drills and `peak_rss_mb` come at fixed
/// positions of the request stream, so they measure the same work however
/// fast the server streams; the rest of the window runs without drills.
constexpr int64_t kPartOps = 100000;
constexpr double kObserveShare = 0.01;
constexpr size_t kSnapshotEvery = 1u << 16;

struct Session {
  std::string name;
  size_t row0 = 0;       // first row of this session in the point set
  int64_t next_id = 0;   // next point id to send
  std::vector<int64_t> batch_first_ids;  // window + tail OBSERVEBs, in order
  std::vector<int> batch_sizes;
  std::vector<EpochReplies> epochs;      // epoch e = after e batches
};

class State {
 public:
  PointSet points;
  std::string spec;
  std::vector<Session> sessions;
  Tally tally;

  size_t RowOf(const Session& s, int64_t id) const {
    const size_t local =
        static_cast<size_t>(id) < kRows
            ? static_cast<size_t>(id)
            : kPreload + (static_cast<size_t>(id) - kPreload) % kExtra;
    return s.row0 + local;
  }

  /// `OBSERVEB` of the session's next `n` points (recorded for the oracle).
  std::string NextBatch(Session& s, int n) {
    std::string text = "OBSERVEB " + s.name + " " + std::to_string(n) + "\n";
    s.batch_first_ids.push_back(s.next_id);
    s.batch_sizes.push_back(n);
    for (int i = 0; i < n; ++i) {
      const int64_t id = s.next_id++;
      const size_t row = RowOf(s, id);
      AppendPointLine(id, points.groups[row], points.Row(row), &text);
    }
    s.epochs.emplace_back();
    return text;
  }
};

class CachedStream final : public Stream {
 public:
  CachedStream(State* state, int conn, uint64_t seed)
      : state_(state), rng_(seed * 7919 + static_cast<uint64_t>(conn)) {
    for (int s = conn; s < kSessions; s += kConns) owned_.push_back(s);
  }

  /// Sends only `n` more requests (then reports done); -1 lifts the limit.
  void SetBudget(int64_t n) { budget_ = n; }

  Poll Next(std::string* text, Op* op) override {
    if (budget_ == 0) return Poll::kDone;
    if (budget_ > 0) --budget_;
    const int s = owned_[rng_() % owned_.size()];
    Session& session = state_->sessions[static_cast<size_t>(s)];
    op->session = s;
    if (unit_(rng_) < kObserveShare) {
      *text = state_->NextBatch(session, kBatch);
      op->kind = OpKind::kObserve;
      op->points = kBatch;
    } else {
      text->append("SOLVE ").append(session.name);
      op->kind = OpKind::kSolve;
      op->tag = static_cast<int64_t>(session.epochs.size()) - 1;
    }
    return Poll::kRequest;
  }

  void OnReply(const Op& op, std::string_view reply,
               double latency_ms) override {
    Tally& t = state_->tally;
    ++t.attempted;
    if (op.kind == OpKind::kObserve) {
      t.RecordIngest(op.points, latency_ms);
      if (!IngestReplyOk(op, reply)) t.Fail("OBSERVEB: " + std::string(reply));
    } else {
      t.RecordSolve(latency_ms);
      state_->sessions[static_cast<size_t>(op.session)]
          .epochs[static_cast<size_t>(op.tag)]
          .Record(reply);
    }
  }

 private:
  State* state_;
  std::vector<int> owned_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  int64_t budget_ = -1;
};

/// Replays every session's accepted stream into a bare sink and checks
/// each recorded SOLVE reply, the post-recovery ones included.
void Verify(State& st) {
  for (const Session& s : st.sessions) {
    auto sink = MakeSinkFromSpec(st.spec);
    if (!sink.ok()) {
      st.tally.Fail("reference sink: " + sink.status().ToString());
      return;
    }
    std::vector<StreamPoint> batch;
    for (size_t i = 0; i < kPreload; ++i) {
      batch.push_back(StreamPoint{static_cast<int64_t>(i),
                                  st.points.groups[s.row0 + i],
                                  st.points.Row(s.row0 + i)});
    }
    (*sink)->ObserveBatch(batch);
    const auto check = [&](size_t epoch) {
      const EpochReplies& e = s.epochs[epoch];
      if (e.same + e.diff == 0) return;
      e.Check(SolveReplyText((*sink)->Solve()),
              s.name + " epoch " + std::to_string(epoch), &st.tally);
    };
    check(0);
    for (size_t b = 0; b < s.batch_first_ids.size(); ++b) {
      batch.clear();
      for (int i = 0; i < s.batch_sizes[b]; ++i) {
        const int64_t id = s.batch_first_ids[b] + i;
        const size_t row = st.RowOf(s, id);
        batch.push_back(
            StreamPoint{id, st.points.groups[row], st.points.Row(row)});
      }
      (*sink)->ObserveBatch(batch);
      check(b + 1);
    }
  }
}

/// Data generation, servers, sessions, preload, warm caches. Returns the
/// fleet ready for the window.
Result<Fleet> SetUp(const RunContext& ctx, State* st, Recording* rec) {
  st->points = MakeAdultPoints(ctx.seed, kSessions * kRows);
  st->spec = Sfdm2Spec(st->points, "10,10", 0.1, ctx.seed);
  auto fleet = StartFleet(ctx, ctx.work_dir + "/cached_reads", kSnapshotEvery);
  if (!fleet.ok()) return fleet.status();
  std::vector<std::string> setup;
  st->sessions.assign(kSessions, Session{});
  for (int s = 0; s < kSessions; ++s) {
    Session& session = st->sessions[static_cast<size_t>(s)];
    session.name = "c" + std::to_string(s);
    session.row0 = static_cast<size_t>(s) * kRows;
    setup.push_back("CREATE " + session.name + " " + st->spec);
  }
  for (Session& session : st->sessions) {
    for (size_t begin = 0; begin < kPreload; begin += 500) {
      std::string text = "OBSERVEB " + session.name + " 500\n";
      for (size_t i = begin; i < begin + 500; ++i) {
        AppendPointLine(static_cast<int64_t>(i),
                        st->points.groups[session.row0 + i],
                        st->points.Row(session.row0 + i), &text);
      }
      setup.push_back(std::move(text));
    }
    session.next_id = static_cast<int64_t>(kPreload);
    session.epochs.emplace_back();
    setup.push_back("SOLVE " + session.name);
  }
  auto replies = fleet->admin->CallMany(setup);
  if (!replies.ok()) return replies.status();
  for (size_t i = 0; i < setup.size(); ++i) {
    if ((*replies)[i].rfind("OK", 0) != 0) {
      return Status::Internal("setup: " + (*replies)[i]);
    }
    if (setup[i].rfind("SOLVE c", 0) == 0) {
      const int s = std::atoi(setup[i].c_str() + 7);
      ++st->tally.attempted;
      st->sessions[static_cast<size_t>(s)].epochs[0].Record((*replies)[i]);
    }
  }
  for (const Session& session : st->sessions) {
    if (auto r = CallOk(*fleet->follower_admin, "REPLICA " + session.name);
        !r.ok()) {
      return r.status();
    }
  }
  if (rec != nullptr) {
    rec->setup = std::move(setup);
    rec->snapshot_every = kSnapshotEvery;
  }
  return fleet;
}

}  // namespace

REGISTER_BENCHMARK_TASK(cached_reads) {
  WorkloadRun run;
  std::vector<double> setup_s;
  std::unique_ptr<State> st;
  Result<Fleet> fleet = Status::Internal("no setup ran");
  for (int i = 0; i < ctx.setups; ++i) {
    if (fleet.ok()) fleet->Stop();
    st = std::make_unique<State>();
    const Clock::time_point start = Clock::now();
    fleet = SetUp(ctx, st.get(), rec);
    if (!fleet.ok()) {
      run.correct = false;
      std::fprintf(stderr, "cached_reads setup: %s\n",
                   fleet.status().ToString().c_str());
      return run;
    }
    setup_s.push_back(SecondsSince(start));
    std::fprintf(stderr, "cached_reads: setup %d: %.3f s\n", i,
                 setup_s.back());
  }
  const auto fail = [&](const Status& s) {
    std::fprintf(stderr, "cached_reads: %s\n", s.ToString().c_str());
    run.correct = false;
    fleet->Stop();
    return run;
  };

  std::vector<std::string> names;
  for (const Session& s : st->sessions) names.push_back(s.name);

  auto before = ScrapeMetrics(*fleet->admin);
  if (!before.ok()) return fail(before.status());
  auto fbefore = ScrapeMetrics(*fleet->follower_admin);
  if (!fbefore.ok()) return fail(fbefore.status());
  run.primary_metrics_before = *before;
  run.follower_metrics_before = *fbefore;

  std::vector<std::unique_ptr<CachedStream>> streams;
  std::vector<LoopConn> conns;
  for (int c = 0; c < kConns; ++c) {
    streams.push_back(std::make_unique<CachedStream>(st.get(), c, ctx.seed));
    conns.push_back(LoopConn{fleet->primary->port(), streams.back().get(),
                             kDepth, true});
  }
  // The window: `kDrills` parts of `kPartOps` requests, each followed by a
  // recovery drill, then the server's peak RSS is read and the rest of the
  // window runs unbudgeted. The window's clock and CPU count only the
  // parts, not the drills.
  std::vector<double> recoveries, catchups;
  int64_t ops = 0;
  int64_t cpu_ns = 0;
  double secs = 0.0;
  double peak_rss = 0.0;
  for (int part = 0; part <= kDrills; ++part) {
    const bool last = part == kDrills;
    const double part_s = last ? ctx.seconds - secs : 120.0;
    if (last && part_s <= 0.0) break;
    for (auto& s : streams) s->SetBudget(last ? -1 : kPartOps / kConns);
    const int64_t cpu_before = fleet->primary->CpuNanos();
    auto loop = RunLoop(
        conns,
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(part_s)),
        rec != nullptr ? &rec->window : nullptr);
    if (!loop.ok()) return fail(loop.status());
    cpu_ns += fleet->primary->CpuNanos() - cpu_before;
    ops += loop->ops;
    secs += loop->elapsed_s;
    if (last) break;

    auto drill = RunDrill(
        *fleet, names,
        [&] {
          std::vector<std::pair<std::string, int>> tail;
          for (Session& s : st->sessions) {
            tail.emplace_back(st->NextBatch(s, kTailBatch), kTailBatch);
          }
          return tail;
        },
        [&](size_t i, const std::string& reply) {
          ++st->tally.attempted;
          st->sessions[i].epochs.back().Record(reply);
        },
        &st->tally);
    if (!drill.ok()) return fail(drill.status());
    recoveries.push_back(drill->recovery_s);
    catchups.push_back(drill->catchup_s);
    if (part + 1 == kDrills) peak_rss = fleet->primary->PeakRssMb();
  }
  auto after = ScrapeMetrics(*fleet->admin);
  if (!after.ok()) return fail(after.status());
  auto fafter = ScrapeMetrics(*fleet->follower_admin);
  if (!fafter.ok()) return fail(fafter.status());
  run.primary_metrics_after = *after;
  run.follower_metrics_after = *fafter;
  run.kernel_target = JsonInfo(*after, "fdm_kernel_target");
  fleet->Stop();

  Verify(*st);
  const Tally& t = st->tally;
  run.window_ops = ops;
  run.window_ops_per_s = static_cast<double>(ops) / secs;
  const WindowSummary w = Summarize(t, secs, cpu_ns);
  run.server_cpu_us_per_op = w.cpu_us_per_op;
  run.attempted = t.attempted;
  run.failed = t.failed;
  run.correct = t.failed == 0;
  for (const std::string& e : t.errors) {
    std::fprintf(stderr, "cached_reads: %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "cached_reads: %lld ops in %.2fs (%zu SOLVE, %zu OBSERVEB)\n",
               static_cast<long long>(ops), secs, t.solve_ms.size(),
               t.ingest_ms.size());
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
