#ifndef FDM_CORE_SHARDED_STREAM_H_
#define FDM_CORE_SHARDED_STREAM_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/solution.h"
#include "core/stream_sink.h"
#include "core/streaming_dm.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm {

/// Options for the sharded driver.
struct ShardedStreamingOptions {
  /// Number of independent shards the stream is split over (round-robin).
  size_t num_shards = 4;
};

/// Sharded ingestion driver for *unconstrained* max-min diversity
/// maximization — the streaming-side realization of the composable-coreset
/// approach of Indyk et al. [27].
///
/// The stream is split round-robin into `num_shards` substreams, each
/// ingested by its own `StreamingDm` (Algorithm 1). Shards share no state,
/// so a batch is partitioned and the shards ingest in parallel. `Solve`
/// merges the per-shard solutions — each is a composable coreset for
/// remote-edge diversity: `k` points pairwise `≥ µ*_shard` — and
/// post-processes once with GMM farthest-first selection over the union,
/// exactly the map/reduce shape of Indyk et al.'s GMM-per-block coreset with
/// the per-block GMM replaced by the `(1−ε)/2`-approximate streaming
/// candidates. The merge-then-GMM step inherits the composable-coreset
/// constant-factor guarantee relative to the single-stream run (verified on
/// synthetic data in sharded_stream_test.cc).
///
/// Memory is `num_shards ×` the single-stream algorithm; update cost per
/// element is identical, but batches spread across shards *and* wall-clock
/// scales with the threads available.
class ShardedStreamingDm : public StreamSink {
 public:
  /// Creates `num_shards` independent `StreamingDm` instances for solution
  /// size `k` over points of dimension `dim` under `metric`.
  static Result<ShardedStreamingDm> Create(
      int k, size_t dim, MetricKind metric, const StreamingOptions& options,
      const ShardedStreamingOptions& sharding = {});

  /// Routes the element to the next shard (round-robin). Returns true iff
  /// the receiving shard kept the element.
  bool Observe(const StreamPoint& point) override;

  /// Partitions the batch round-robin (continuing the `Observe` rotation)
  /// and ingests the sub-batches fanned out over the process-wide width
  /// (`Parallelism`) — shards are fully independent and each shard ingests
  /// its sub-batch in order, so this is bit-identical to per-element
  /// routing.
  size_t ObserveBatch(std::span<const StreamPoint> batch) override;

  /// Sum of the shards' state versions — monotone, chunking-invariant, and
  /// restored for free because every shard snapshot carries its own
  /// version.
  uint64_t StateVersion() const override;

  /// Merge + single post-process: union of the per-shard solutions, GMM
  /// farthest-first selection of `k` points over the union. Fails with
  /// `Infeasible` when no shard filled a candidate (stream too small or
  /// too concentrated for this shard count). Per-shard solves fan out
  /// over the process-wide width (`Parallelism`), and each
  /// shard's own rung fan-out then runs inline on its task; the merge
  /// keeps shard order and the reduce is sequential, so output is
  /// bit-identical at any width.
  Result<Solution> Solve() const override;

  /// Sum of the shards' distinct stored elements (substreams are disjoint,
  /// so the sum is the distinct total).
  size_t StoredElements() const override;

  int64_t ObservedElements() const override { return observed_; }

  /// Versioned state serialization: the driver header plus each shard's own
  /// self-contained snapshot. See `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override;

  /// Rebuilds the driver (and every shard) from a snapshot.
  static Result<ShardedStreamingDm> Restore(SnapshotReader& reader);

  static constexpr std::string_view kSnapshotTag = "sharded_streaming_dm";

  size_t num_shards() const { return shards_.size(); }
  const StreamingDm& shard(size_t s) const { return shards_[s]; }

 private:
  ShardedStreamingDm(int k, size_t dim, MetricKind metric,
                     std::vector<StreamingDm> shards);

  int k_;
  size_t dim_;
  Metric metric_;
  std::vector<StreamingDm> shards_;
  int64_t observed_ = 0;
};

}  // namespace fdm

#endif  // FDM_CORE_SHARDED_STREAM_H_
