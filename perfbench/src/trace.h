#ifndef FDM_PERFBENCH_TRACE_H_
#define FDM_PERFBENCH_TRACE_H_

// The traced run: the workload once untraced and once recording its
// window's requests, then the recording replayed on fresh state at
// successively lower public entry points —
//
//   1. RequestDispatcher::HandleRequest (StringLineSource payloads)
//   2. SessionManager::Ingest / Solve
//   3. DurableSession::Ingest / Solve
//   4. the bare sink's ObserveBatch / Solve (behind a SolveCache)
//
// plus WriteAheadLog::AppendBatch/Sync and DedupFilter timed on the same
// records, and a PointBuffer scan at the workload's shape. Spans are the
// benchmark's own timers around those calls, kept in memory; counts are
// METRICS-json deltas of the server (over TCP) or of this process's
// registry (in-process replays).

#include <vector>

#include "harness.h"

namespace fdm::bench {

struct TraceResult {
  WorkloadRun run;              // the traced TCP run (correctness, counts)
  std::vector<Metric> metrics;  // per-layer metrics (or e2e when untraced)
};

TraceResult RunTraced(const RunContext& ctx, const TaskEntry& task);

}  // namespace fdm::bench

#endif  // FDM_PERFBENCH_TRACE_H_
