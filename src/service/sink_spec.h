#ifndef FDM_SERVICE_SINK_SPEC_H_
#define FDM_SERVICE_SINK_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/stream_sink.h"
#include "geo/metric.h"
#include "util/status.h"

namespace fdm {

/// The points a sink built from a spec can hold: `dim` coordinates and,
/// for the fair kinds (`groups` > 0), a group in [0, groups). The one
/// admission rule of the service layer: a session checks every client
/// point against it before the WAL, and crash-recovery replay and follower
/// tails check every record they read back, so a point the sink cannot
/// hold never reaches it.
struct PointRule {
  size_t dim = 0;
  size_t groups = 0;  // 0: any group (the unconstrained kinds)

  /// OK, or InvalidArgument saying which part of the point does not fit.
  Status Check(size_t point_dim, int32_t group) const;
};

/// A textual, dataset-free description of a streaming sink — the unit of
/// configuration the service layer stores per session. Unlike the harness
/// registry (which reads k/dim/metric off a `Dataset`), a serving session
/// has no dataset: the spec carries everything needed to build the sink
/// before the first element arrives.
///
/// Format: whitespace-separated `key=value` tokens, e.g.
///
///   algo=sfdm2 dim=4 quotas=2,2,3 metric=euclidean eps=0.1 dmin=0.01
///   dmax=50
///
/// Keys:
///   algo     streaming_dm | sfdm1 | sfdm2 | adaptive | sharded |
///            sliding_window   (required)
///   dim      point dimension (required)
///   k        solution size (unconstrained kinds; required for them)
///   quotas   comma-separated per-group quotas (fair kinds; required)
///   metric   euclidean | manhattan | angular      (default euclidean)
///   eps      guess-ladder ε                        (default 0.1)
///   dmin     lower distance bound (required unless algo=adaptive)
///   dmax     upper distance bound (required unless algo=adaptive)
///   shards   shard count (algo=sharded)            (default 4)
///   window   window length (algo=sliding_window; required for it)
///   checkpoints  window replicas (algo=sliding_window, default 4)
///   max_rungs    ladder cap (algo=adaptive, default 4096)
///   dedup    on | off — exactly-once ingest: an exact id set (bitmap
///            + table) in front of admission makes re-OBSERVEd points
///            idempotent no-ops (no WAL record, no state-version bump).
///            Session-layer concern; the sink itself ignores it.
///            (default off — sliding-window streams legitimately
///            re-observe ids)
///
/// Two legacy keys are accepted and ignored, so SPEC lines written when
/// the widths were per-sink keys still parse: `threads=N` (any integer;
/// the ingest width) and `solve_threads=N` (N >= 0). Both widths are the
/// one process-wide setting now (core/parallelism.h); `ToString` never
/// writes either key.
struct SinkSpec {
  std::string algo;
  size_t dim = 0;
  int k = 0;
  std::vector<int> quotas;
  MetricKind metric = MetricKind::kEuclidean;
  double epsilon = 0.1;
  double d_min = 0.0;
  double d_max = 0.0;
  size_t shards = 4;
  int64_t window = 0;
  int64_t checkpoints = 4;
  size_t max_rungs = 4096;
  bool dedup = false;

  /// Parses the `key=value` form; unknown keys and malformed values are
  /// `InvalidArgument` errors (a serving config typo should fail loudly).
  static Result<SinkSpec> Parse(std::string_view text);

  /// Canonical round-trippable text form.
  std::string ToString() const;

  /// The group labels a point may carry: the fair kinds (sfdm1, sfdm2)
  /// hold a point only when `0 <= group < GroupCount()`, one group per
  /// quota; the unconstrained kinds ignore groups, even when `quotas` is
  /// set, and report 0.
  size_t GroupCount() const;

  /// `dim` and `GroupCount()` as the session's admission rule.
  PointRule Rule() const { return PointRule{dim, GroupCount()}; }

  /// Builds a fresh sink. Fails if required keys for the chosen algorithm
  /// are missing or inconsistent.
  Result<std::unique_ptr<StreamSink>> MakeSink() const;
};

/// `SinkSpec::Parse` + `MakeSink` in one step.
Result<std::unique_ptr<StreamSink>> MakeSinkFromSpec(std::string_view text);

}  // namespace fdm

#endif  // FDM_SERVICE_SINK_SPEC_H_
