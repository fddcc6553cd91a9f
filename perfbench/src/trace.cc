#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/solve_cache.h"
#include "geo/metric.h"
#include "net/dispatch.h"
#include "obs/metrics.h"
#include "service/dedup_filter.h"
#include "service/durable_session.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "service/wal.h"

namespace fdm::bench {
namespace {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double Elapsed(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// This process's registry, scraped the way a client scrapes a server.
std::string LocalMetrics() {
  return obs::MetricsRegistry::Global().RenderJson();
}

double Delta(const std::string& before, const std::string& after,
             const std::string& name) {
  return JsonScalar(after, name) - JsonScalar(before, name);
}

double HistDelta(const std::string& before, const std::string& after,
                 const std::string& name, const std::string& field) {
  return JsonHistogram(after, name, field) -
         JsonHistogram(before, name, field);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One recorded request, parsed once up front so the lower layers are
/// timed without the text parsing they never do.
struct Req {
  enum Kind { kCreate, kObserve, kSolve, kOther } kind = kOther;
  std::string name;
  std::string spec;
  std::vector<int64_t> ids;
  std::vector<int32_t> groups;
  std::vector<double> coords;
  size_t dim = 0;

  std::vector<StreamPoint> Points(const std::vector<char>* keep = nullptr) const {
    std::vector<StreamPoint> points;
    points.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (keep != nullptr && !(*keep)[i]) continue;
      points.push_back(StreamPoint{
          ids[i], groups[i], std::span<const double>(coords.data() + i * dim, dim)});
    }
    return points;
  }
};

Req Parse(std::string_view text) {
  Req req;
  const size_t nl = text.find('\n');
  std::string_view line = text.substr(0, nl);
  const size_t sp1 = line.find(' ');
  const std::string_view verb = line.substr(0, sp1);
  std::string_view rest = sp1 == std::string_view::npos ? "" : line.substr(sp1 + 1);
  const size_t sp2 = rest.find(' ');
  req.name = std::string(rest.substr(0, sp2));
  if (verb == "CREATE") {
    req.kind = Req::kCreate;
    req.spec = std::string(rest.substr(sp2 + 1));
  } else if (verb == "SOLVE") {
    req.kind = Req::kSolve;
  } else if (verb == "OBSERVEB") {
    req.kind = Req::kObserve;
    std::string payload(nl == std::string_view::npos ? "" : text.substr(nl + 1));
    const char* p = payload.c_str();
    char* end = nullptr;
    while (*p != '\0') {
      req.ids.push_back(std::strtoll(p, &end, 10));
      p = end;
      req.groups.push_back(static_cast<int32_t>(std::strtol(p, &end, 10)));
      p = end;
      size_t dim = 0;
      while (*p == ' ') {
        req.coords.push_back(std::strtod(p, &end));
        p = end;
        ++dim;
      }
      req.dim = dim;
      if (*p == '\n') ++p;
    }
  }
  return req;
}

/// Wall time per verb at one layer.
struct LayerTime {
  double ingest_s = 0.0;
  double solve_s = 0.0;
  double cpu_s = 0.0;
  double Total() const { return ingest_s + solve_s; }
};

struct Replay {
  const Recording* rec = nullptr;
  std::vector<Req> setup;
  std::vector<Req> window;
  std::string dir;
  int64_t failures = 0;
  int64_t window_coords = 0;
  int64_t ingest_ops = 0;
  int64_t solve_ops = 0;
  bool dedup = false;
  size_t dim = 0;
  /// Per window ingest op: which points pass the duplicate guard.
  std::vector<std::vector<char>> keep;

  void Fail(const std::string& why) {
    if (failures++ < 3) std::fprintf(stderr, "trace replay: %s\n", why.c_str());
  }
};

// --- Layer 1: RequestDispatcher::HandleRequest ------------------------------

LayerTime ReplayDispatch(Replay& r) {
  LayerTime t;
  SessionManagerOptions options;
  options.root_dir = r.dir + "/dispatch";
  options.session.snapshot_every = r.rec->snapshot_every;
  if (Status s = ResetDir(options.root_dir); !s.ok()) r.Fail(s.ToString());
  auto manager = SessionManager::Create(options);
  if (!manager.ok()) {
    r.Fail(manager.status().ToString());
    return t;
  }
  net::RequestDispatcher dispatcher(manager->get(), options.root_dir);
  std::string out;
  const auto run = [&](const std::string& text, bool timed) {
    const size_t nl = text.find('\n');
    const std::string line = text.substr(0, nl);
    net::StringLineSource payload(
        nl == std::string::npos ? std::string_view()
                                : std::string_view(text).substr(nl + 1));
    out.clear();
    const Clock::time_point a = Clock::now();
    dispatcher.HandleRequest(line, payload, &out);
    const Clock::time_point b = Clock::now();
    if (out.rfind("OK", 0) != 0) r.Fail("HandleRequest: " + out.substr(0, 80));
    if (timed) (text[0] == 'O' ? t.ingest_s : t.solve_s) += Elapsed(a, b);
  };
  for (const std::string& text : r.rec->setup) run(text, false);
  const double cpu0 = ProcessCpuSeconds();
  for (const std::string& text : r.rec->window) run(text, true);
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  return t;
}

// --- Layer 2: SessionManager::Ingest / Solve --------------------------------

LayerTime ReplaySessionManager(Replay& r) {
  LayerTime t;
  SessionManagerOptions options;
  options.root_dir = r.dir + "/session_manager";
  options.session.snapshot_every = r.rec->snapshot_every;
  if (Status s = ResetDir(options.root_dir); !s.ok()) r.Fail(s.ToString());
  auto manager = SessionManager::Create(options);
  if (!manager.ok()) {
    r.Fail(manager.status().ToString());
    return t;
  }
  SessionManager& m = **manager;
  const auto run = [&](const Req& q, bool timed) {
    if (q.kind == Req::kCreate) {
      if (Status s = m.CreateSession(q.name, q.spec); !s.ok()) r.Fail(s.ToString());
      return;
    }
    const std::vector<StreamPoint> points = q.Points();
    const Clock::time_point a = Clock::now();
    bool ok = true;
    if (q.kind == Req::kObserve) {
      ok = m.Ingest(q.name, points, /*as_batch=*/true).ok();
    } else {
      ok = m.Solve(q.name).ok();
    }
    const Clock::time_point b = Clock::now();
    if (!ok) r.Fail("SessionManager op failed on " + q.name);
    if (timed) (q.kind == Req::kObserve ? t.ingest_s : t.solve_s) += Elapsed(a, b);
  };
  for (const Req& q : r.setup) run(q, false);
  const double cpu0 = ProcessCpuSeconds();
  for (const Req& q : r.window) run(q, true);
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  return t;
}

// --- Layer 3: DurableSession::Ingest / Solve --------------------------------

struct DurableExtras {
  double window_snapshot_s = 0.0;  // auto-snapshots inside the window
  double replay_pts_per_s = 0.0;
  double snapshot_ms = 0.0;
  double snapshot_bytes = 0.0;
};

LayerTime ReplayDurable(Replay& r, DurableExtras* extras) {
  LayerTime t;
  const std::string root = r.dir + "/durable";
  if (Status s = ResetDir(root); !s.ok()) r.Fail(s.ToString());
  DurableSessionOptions options;
  options.snapshot_every = r.rec->snapshot_every;
  std::map<std::string, std::unique_ptr<DurableSession>> sessions;
  const auto run = [&](const Req& q, bool timed) {
    if (q.kind == Req::kCreate) {
      auto s = DurableSession::Create(root + "/" + q.name, q.spec, options);
      if (!s.ok()) {
        r.Fail(s.status().ToString());
        return;
      }
      sessions[q.name] = std::make_unique<DurableSession>(std::move(*s));
      return;
    }
    DurableSession* session = sessions[q.name].get();
    if (session == nullptr) return r.Fail("no session " + q.name);
    const std::vector<StreamPoint> points = q.Points();
    const Clock::time_point a = Clock::now();
    const bool ok = q.kind == Req::kObserve
                        ? session->Ingest(points, /*as_batch=*/true).ok()
                        : session->Solve().ok();
    const Clock::time_point b = Clock::now();
    if (!ok) r.Fail("DurableSession op failed on " + q.name);
    if (timed) (q.kind == Req::kObserve ? t.ingest_s : t.solve_s) += Elapsed(a, b);
  };
  for (const Req& q : r.setup) run(q, false);
  const std::string m0 = LocalMetrics();
  const double cpu0 = ProcessCpuSeconds();
  for (const Req& q : r.window) run(q, true);
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  const std::string m1 = LocalMetrics();
  extras->window_snapshot_s =
      HistDelta(m0, m1, "fdm_snapshot_write_ns", "sum") / 1e9;

  // Recovery: drop each session (the WAL destructor flushes its tail) and
  // reopen it — newest snapshot plus WAL-tail replay.
  for (auto& [name, session] : sessions) {
    session.reset();
    auto reopened = DurableSession::Open(root + "/" + name, options);
    if (!reopened.ok()) {
      r.Fail(reopened.status().ToString());
      continue;
    }
    session = std::make_unique<DurableSession>(std::move(*reopened));
  }
  const std::string m2 = LocalMetrics();
  extras->replay_pts_per_s =
      Ratio(Delta(m1, m2, "fdm_wal_replay_records_total"),
            HistDelta(m1, m2, "fdm_wal_replay_ns", "sum") / 1e9);
  double snapshot_s = 0.0;
  for (auto& [name, session] : sessions) {
    if (session == nullptr) continue;
    const Clock::time_point a = Clock::now();
    if (Status s = session->TakeSnapshot(); !s.ok()) r.Fail(s.ToString());
    snapshot_s += Elapsed(a, Clock::now());
  }
  const std::string m3 = LocalMetrics();
  const double snapshots = static_cast<double>(sessions.size());
  extras->snapshot_ms = 1e3 * Ratio(snapshot_s, snapshots);
  extras->snapshot_bytes =
      Ratio(Delta(m2, m3, "fdm_snapshot_bytes_total"), snapshots);
  return t;
}

// --- Layer 4: the bare sink behind a SolveCache -----------------------------

struct SinkExtras {
  int64_t points = 0;
  int64_t mutations = 0;
  double scans = 0.0;
  double hit_s = 0.0;
  int64_t hits = 0;
  double cold_s = 0.0;
  int64_t cold = 0;
  double rungs = 0.0;
  size_t stored = 0;
};

double KernelScans() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  return static_cast<double>(
      reg.GetCounter("fdm_kernel_min_scans_total", "").Value() +
      reg.GetCounter("fdm_kernel_many_scans_total", "").Value() +
      reg.GetCounter("fdm_kernel_dists_scans_total", "").Value());
}

LayerTime ReplaySink(Replay& r, SinkExtras* extras) {
  LayerTime t;
  struct Entry {
    std::unique_ptr<StreamSink> sink;
    std::unique_ptr<SolveCache> cache;
    DedupFilter filter;
  };
  std::map<std::string, Entry> entries;
  size_t next_keep = 0;
  const auto run = [&](const Req& q, bool timed) {
    if (q.kind == Req::kCreate) {
      auto sink = MakeSinkFromSpec(q.spec);
      if (!sink.ok()) return r.Fail(sink.status().ToString());
      entries[q.name] = Entry{std::move(*sink), std::make_unique<SolveCache>(), {}};
      return;
    }
    Entry& e = entries[q.name];
    if (e.sink == nullptr) return r.Fail("no sink " + q.name);
    if (q.kind == Req::kObserve) {
      std::vector<char> keep(q.ids.size(), 1);
      if (timed) {
        keep = r.keep[next_keep++];
      } else if (r.dedup) {
        for (size_t i = 0; i < q.ids.size(); ++i) {
          keep[i] = e.filter.InsertIfAbsent(q.ids[i]) ? 1 : 0;
        }
      }
      const std::vector<StreamPoint> points = q.Points(r.dedup ? &keep : nullptr);
      const double scans0 = timed ? KernelScans() : 0.0;
      const Clock::time_point a = Clock::now();
      const size_t mutations = e.sink->ObserveBatch(points);
      const Clock::time_point b = Clock::now();
      if (timed) {
        extras->scans += KernelScans() - scans0;
        t.ingest_s += Elapsed(a, b);
        extras->points += static_cast<int64_t>(points.size());
        extras->mutations += static_cast<int64_t>(mutations);
      }
      return;
    }
    bool computed = false;
    double compute_s = 0.0;
    StreamSink& sink = *e.sink;
    const Clock::time_point a = Clock::now();
    const Result<Solution> solution = e.cache->GetOrCompute(
        sink.StateVersion(), [&] {
          computed = true;
          const Clock::time_point c = Clock::now();
          Result<Solution> s = sink.Solve();
          compute_s = Elapsed(c, Clock::now());
          return s;
        });
    const Clock::time_point b = Clock::now();
    if (!solution.ok()) r.Fail("sink Solve: " + solution.status().ToString());
    if (!timed) return;
    t.solve_s += Elapsed(a, b);
    if (computed) {
      extras->cold_s += compute_s;
      ++extras->cold;
    } else {
      extras->hit_s += Elapsed(a, b);
      ++extras->hits;
    }
  };
  for (const Req& q : r.setup) run(q, false);
  const std::string m0 = LocalMetrics();
  const double cpu0 = ProcessCpuSeconds();
  for (const Req& q : r.window) run(q, true);
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  const std::string m1 = LocalMetrics();
  extras->rungs = HistDelta(m0, m1, "fdm_solve_rung_ns", "count");
  if (!entries.empty()) extras->stored = entries.begin()->second.sink->StoredElements();
  return t;
}

// --- Leaves: DedupFilter, WriteAheadLog, a PointBuffer scan ------------------

struct Leaves {
  double dedup_s = 0.0;
  int64_t dedup_checked = 0;
  int64_t dedup_rejected = 0;
  double wal_s = 0.0;
  double wal_fsyncs = 0.0;
  double wal_fsync_ns = 0.0;
  double wal_bytes = 0.0;
  double wal_records = 0.0;
  double scan_ns_per_pt = 0.0;
};

/// Times the duplicate guard on every window batch (and fills `r.keep`,
/// the per-batch admission mask the sink and WAL replays use).
void TimeDedup(Replay& r, Leaves* leaves) {
  std::map<std::string, DedupFilter> filters;
  for (const Req& q : r.setup) {
    if (q.kind != Req::kObserve) continue;
    DedupFilter& f = filters[q.name];
    for (const int64_t id : q.ids) f.InsertIfAbsent(id);
  }
  for (const Req& q : r.window) {
    if (q.kind != Req::kObserve) continue;
    DedupFilter& f = filters[q.name];
    std::vector<char> keep(q.ids.size(), 1);
    const Clock::time_point a = Clock::now();
    for (size_t i = 0; i < q.ids.size(); ++i) {
      keep[i] = f.InsertIfAbsent(q.ids[i]) ? 1 : 0;
    }
    leaves->dedup_s += Elapsed(a, Clock::now());
    for (const char k : keep) leaves->dedup_rejected += k == 0 ? 1 : 0;
    leaves->dedup_checked += static_cast<int64_t>(q.ids.size());
    if (!r.dedup) keep.assign(q.ids.size(), 1);
    r.keep.push_back(std::move(keep));
  }
}

void TimeWal(Replay& r, Leaves* leaves) {
  std::map<std::string, std::unique_ptr<WriteAheadLog>> wals;
  const std::string m0 = LocalMetrics();
  size_t next_keep = 0;
  for (const Req& q : r.window) {
    if (q.kind != Req::kObserve) continue;
    auto& wal = wals[q.name];
    if (wal == nullptr) {
      const std::string dir = r.dir + "/wal/" + q.name;
      if (Status s = ResetDir(dir); !s.ok()) return r.Fail(s.ToString());
      auto opened = WriteAheadLog::Open(dir);
      if (!opened.ok()) return r.Fail(opened.status().ToString());
      wal = std::make_unique<WriteAheadLog>(std::move(*opened));
    }
    const std::vector<StreamPoint> points = q.Points(&r.keep[next_keep++]);
    const Clock::time_point a = Clock::now();
    if (Status s = wal->AppendBatch(points); !s.ok()) r.Fail(s.ToString());
    leaves->wal_s += Elapsed(a, Clock::now());
  }
  const std::string m1 = LocalMetrics();
  leaves->wal_fsyncs = HistDelta(m0, m1, "fdm_wal_fsync_ns", "count");
  leaves->wal_fsync_ns = HistDelta(m0, m1, "fdm_wal_fsync_ns", "sum");
  leaves->wal_bytes = Delta(m0, m1, "fdm_wal_append_bytes_total");
  leaves->wal_records = Delta(m0, m1, "fdm_wal_append_records_total");
}

/// `PointBuffer::MinRawDistanceTo` over `stored` of the workload's points.
void TimeScan(const Replay& r, size_t stored, Leaves* leaves) {
  std::vector<StreamPoint> pool;
  for (const std::vector<Req>* reqs : {&r.setup, &r.window}) {
    for (const Req& q : *reqs) {
      if (q.kind != Req::kObserve) continue;
      for (const StreamPoint& p : q.Points()) pool.push_back(p);
    }
  }
  stored = std::clamp<size_t>(stored, 8, pool.size() > 64 ? pool.size() - 64 : 8);
  if (pool.size() < stored + 64) return;
  PointBuffer buffer(r.dim, stored);
  for (size_t i = 0; i < stored; ++i) buffer.Add(pool[i]);
  const fdm::Metric metric(MetricKind::kEuclidean);  // every workload's metric
  double sink = 0.0;
  int64_t scans = 0;
  const Clock::time_point a = Clock::now();
  while (SecondsSince(a) < 0.2) {
    for (size_t q = 0; q < 64; ++q) {
      sink += buffer.MinRawDistanceTo(pool[pool.size() - 1 - q].coords, metric);
      ++scans;
    }
  }
  const double s = SecondsSince(a);
  volatile double keep = sink;  // the scans' results must stay observable
  (void)keep;
  leaves->scan_ns_per_pt =
      1e9 * s / static_cast<double>(scans) / static_cast<double>(stored);
}

}  // namespace

TraceResult RunTraced(const RunContext& ctx, const TaskEntry& task) {
  TraceResult result;
  const WorkloadRun untraced = task.fn(ctx, nullptr);
  Recording rec;
  result.run = task.fn(ctx, &rec);
  WorkloadRun& run = result.run;
  if (untraced.metrics.empty() || run.metrics.empty()) return result;
  run.correct = run.correct && untraced.correct;
  run.attempted += untraced.attempted;
  run.failed += untraced.failed;

  Replay r;
  r.rec = &rec;
  r.dir = ctx.work_dir + "/trace";
  for (const std::string& text : rec.setup) r.setup.push_back(Parse(text));
  for (const std::string& text : rec.window) {
    r.window.push_back(Parse(text));
    const Req& q = r.window.back();
    if (q.kind == Req::kObserve) {
      ++r.ingest_ops;
      r.window_coords += static_cast<int64_t>(q.coords.size());
      r.dim = q.dim;
    } else {
      ++r.solve_ops;
    }
  }
  for (const Req& q : r.setup) {
    if (q.kind == Req::kCreate) {
      r.dedup = q.spec.find("dedup=on") != std::string::npos;
    }
  }
  const double n = static_cast<double>(r.window.size());
  if (n == 0 || r.ingest_ops == 0) {
    std::fprintf(stderr, "trace: empty recording\n");
    result.metrics.clear();
    return result;
  }

  Leaves leaves;
  TimeDedup(r, &leaves);
  // Each layer is replayed twice, top-down then bottom-up, keeping its
  // faster replay: the host's slow episodes then bias no layer's self
  // time in particular.
  LayerTime l1, l2, l3, l4;
  DurableExtras durable;
  SinkExtras sink;
  const auto keep_faster = [](LayerTime* best, const LayerTime& t, int rep) {
    if (rep == 0 || t.Total() < best->Total()) *best = t;
  };
  for (int rep = 0; rep < 2; ++rep) {
    for (int step = 0; step < 4; ++step) {
      const int level = rep == 0 ? step + 1 : 4 - step;
      if (level == 1) keep_faster(&l1, ReplayDispatch(r), rep);
      if (level == 2) keep_faster(&l2, ReplaySessionManager(r), rep);
      if (level == 3) {
        DurableExtras extras;
        const LayerTime t = ReplayDurable(r, &extras);
        if (rep == 0 || t.Total() < l3.Total()) durable = extras;
        keep_faster(&l3, t, rep);
      }
      if (level == 4) {
        SinkExtras extras;
        const LayerTime t = ReplaySink(r, &extras);
        if (rep == 0 || t.Total() < l4.Total()) sink = extras;
        keep_faster(&l4, t, rep);
      }
    }
  }
  TimeWal(r, &leaves);
  TimeScan(r, sink.stored, &leaves);
  run.attempted += static_cast<int64_t>(8 * r.window.size());
  run.failed += r.failures;
  run.correct = run.correct && r.failures == 0;
  ResetDir(r.dir);

  const std::string& p0 = run.primary_metrics_before;
  const std::string& p1 = run.primary_metrics_after;
  const std::string& f0 = run.follower_metrics_before;
  const std::string& f1 = run.follower_metrics_after;
  const double us = 1e6 / n;
  const double net_self = run.server_cpu_us_per_op - l1.cpu_s * us;
  // The durable layer's self time minus the parts timed on their own:
  // WAL appends, the duplicate guard (dedup=on sessions only) and the
  // auto-snapshots taken inside the window.
  const double explained = leaves.wal_s + (r.dedup ? leaves.dedup_s : 0.0) +
                           durable.window_snapshot_s;
  const double unattributed = (l3.Total() - l4.Total() - explained) * us;
  const double total = net_self + l1.Total() * us;
  const double apply = Delta(f0, f1, "fdm_replica_apply_records_total");
  result.metrics = {
      {"net.self_us_per_op", net_self, "us"},
      {"net.bytes_per_op",
       Ratio(Delta(p0, p1, "fdm_net_bytes_in_total") +
                 Delta(p0, p1, "fdm_net_bytes_out_total"),
             Delta(p0, p1, "fdm_net_requests_total")),
       "B"},
      {"dispatch.self_us_per_op", (l1.Total() - l2.Total()) * us, "us"},
      {"dispatch.parse_ns_per_coord",
       1e9 * Ratio(l1.ingest_s - l2.ingest_s,
                   static_cast<double>(r.window_coords)),
       "ns"},
      {"session_manager.self_us_per_op", (l2.Total() - l3.Total()) * us, "us"},
      {"durable_session.self_us_per_op", (l3.Total() - l4.Total()) * us, "us"},
      {"solve_cache.hit_us",
       1e6 * Ratio(sink.hit_s, static_cast<double>(sink.hits)), "us"},
      {"solve_cache.hit_ratio",
       Ratio(static_cast<double>(sink.hits), static_cast<double>(r.solve_ops)),
       "ratio"},
      {"dedup.us_per_batch",
       1e6 * Ratio(leaves.dedup_s, static_cast<double>(r.ingest_ops)), "us"},
      {"dedup.rejected_frac",
       Ratio(static_cast<double>(leaves.dedup_rejected),
             static_cast<double>(leaves.dedup_checked)),
       "ratio"},
      {"wal.append_us_per_batch",
       1e6 * Ratio(leaves.wal_s, static_cast<double>(r.ingest_ops)), "us"},
      {"wal.fsyncs_per_kpt", 1e3 * Ratio(leaves.wal_fsyncs, leaves.wal_records),
       "count"},
      {"wal.fsync_ms", 1e-6 * Ratio(leaves.wal_fsync_ns, leaves.wal_fsyncs),
       "ms"},
      {"wal.bytes_per_pt", Ratio(leaves.wal_bytes, leaves.wal_records), "B"},
      {"snapshot.write_ms", durable.snapshot_ms, "ms"},
      {"snapshot.bytes", durable.snapshot_bytes, "B"},
      {"recovery.replay_pts_per_s", durable.replay_pts_per_s, "pts/s"},
      {"ingest.sink_us_per_pt",
       1e6 * Ratio(l4.ingest_s, static_cast<double>(sink.points)), "us"},
      {"ingest.kept_frac",
       Ratio(static_cast<double>(sink.mutations),
             static_cast<double>(sink.points)),
       "ratio"},
      {"solve.cold_ms", 1e3 * Ratio(sink.cold_s, static_cast<double>(sink.cold)),
       "ms"},
      {"solve.rungs_per_miss", Ratio(sink.rungs, static_cast<double>(sink.cold)),
       "count"},
      {"kernel.scans_per_pt",
       Ratio(sink.scans, static_cast<double>(sink.points)), "count"},
      {"kernel.scan_ns_per_pt", leaves.scan_ns_per_pt, "ns"},
      {"replica.fetch_bytes_per_record",
       Ratio(Delta(f0, f1, "fdm_replica_fetch_bytes_total"), apply), "B"},
      {"replica.apply_pts_per_s",
       Ratio(apply, HistDelta(f0, f1, "fdm_replica_poll_ns", "sum") / 1e9),
       "pts/s"},
      {"trace.unattributed_frac", Ratio(unattributed, total), "ratio"},
      {"trace.overhead_frac",
       Ratio(untraced.window_ops_per_s, run.window_ops_per_s) - 1.0, "ratio"},
  };
  std::fprintf(stderr,
               "trace: %zu window ops; layer wall us/op: dispatch %.3f, "
               "session_manager %.3f, durable %.3f, sink %.3f; server cpu "
               "%.3f us/op, dispatch cpu %.3f us/op\n",
               r.window.size(), l1.Total() * us, l2.Total() * us,
               l3.Total() * us, l4.Total() * us, run.server_cpu_us_per_op,
               l1.cpu_s * us);
  return result;
}

}  // namespace fdm::bench
