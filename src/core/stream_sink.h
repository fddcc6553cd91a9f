#ifndef FDM_CORE_STREAM_SINK_H_
#define FDM_CORE_STREAM_SINK_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/solution.h"
#include "geo/point_buffer.h"
#include "util/status.h"

namespace fdm {

class SnapshotWriter;
class SnapshotReader;

/// The uniform ingestion interface of the streaming algorithms
/// (`StreamingDm`, `Sfdm1`, `Sfdm2`, `AdaptiveStreamingDm`, and drivers
/// layered on top of them, like `ShardedStreamingDm`). The harness, the
/// benches, and applications feed any of them through this one contract:
///
///  * `Observe` consumes exactly one stream element. The element's
///    coordinate span is only valid during the call — sinks copy what they
///    retain (this keeps the paper's memory accounting honest). It returns
///    whether the element actually *mutated* retained state (kept by some
///    candidate, grew the ladder, rolled the window) so callers never have
///    to guess whether a query answer may have changed.
///  * `ObserveBatch(batch)` must be observationally equivalent to calling
///    `Observe` on each element of `batch` in order: any later `Solve()`
///    returns bit-identical output. Implementations are free to
///    parallelize across *independent internal state* (guess-ladder rungs,
///    shards) — never across the dependent per-element chain within one
///    piece of state — which is what makes batched ingestion a pure
///    speedup.
///  * `Solve` may be called at any time and does not consume the stream
///    state (anytime behaviour): more elements may be observed afterwards
///    and `Solve` called again. The query path mirrors the ingest-side
///    determinism contract: a sink may post-process *independent internal
///    state* (rungs, shards) over the process-wide width
///    (core/parallelism.h), but the final winner selection must stay a
///    sequential in-order scan, so `Solve` output is bit-identical at
///    every width.
///  * `StateVersion` is a monotone counter that advances *only* when
///    `Observe`/`ObserveBatch` mutates retained state. It is the cache key
///    of the incremental query path: equal versions guarantee bit-identical
///    `Solve()` output, so `SolveCache` (core/solve_cache.h) and the
///    service layer can answer repeated queries without re-running the
///    post-processing. The counter is *chunking-invariant* — feeding a
///    stream per-element or via any `ObserveBatch` partition yields the
///    same final version — so a WAL replay (batched) reproduces the version
///    of the original (per-element) ingest and snapshots stay bit-identical
///    across recovery.
///  * `StoredElements` reports the distinct retained elements — the
///    paper's space-usage measure.
class StreamSink {
 public:
  virtual ~StreamSink() = default;

  /// Processes one stream element. Returns true iff the element mutated
  /// retained state (and hence advanced `StateVersion`).
  virtual bool Observe(const StreamPoint& point) = 0;

  /// Processes a batch of stream elements; equivalent to observing each in
  /// order. The default forwards to `Observe`; algorithms with independent
  /// per-rung or per-shard state override this with a parallel partition.
  /// Returns the number of state mutations the batch caused (an element
  /// kept by several internal candidates may count more than once); `0`
  /// means the batch left retained state — and `StateVersion` — untouched.
  virtual size_t ObserveBatch(std::span<const StreamPoint> batch) {
    size_t mutations = 0;
    for (const StreamPoint& point : batch) {
      if (Observe(point)) ++mutations;
    }
    return mutations;
  }

  /// Monotone state version; see the class comment for the contract.
  virtual uint64_t StateVersion() const = 0;

  /// The current best solution over everything observed so far.
  virtual Result<Solution> Solve() const = 0;

  /// Distinct elements currently stored.
  virtual size_t StoredElements() const = 0;

  /// Total elements observed so far.
  virtual int64_t ObservedElements() const = 0;

  /// Serializes the sink's complete internal state (guess-ladder
  /// configuration, retained points, fairness counters) into `writer`,
  /// prefixed by the sink's type tag. The contract is a round-trip
  /// invariant: the matching static `Restore(SnapshotReader&)` on the
  /// concrete class yields a sink whose `Solve()`, `StoredElements()`, and
  /// `ObservedElements()` are bit-identical to this one, and which evolves
  /// identically under further `Observe` calls. `RestoreSink`
  /// (core/sink_snapshot.h) dispatches on the tag when the concrete type is
  /// not known statically. Sinks without durability support keep the
  /// default.
  virtual Status Snapshot(SnapshotWriter& writer) const {
    (void)writer;
    return Status::Unsupported("this sink does not support snapshots");
  }
};

/// Feeds the dataset rows listed in `order` into `sink`: chopped into
/// `batch_size`-element `ObserveBatch` calls (tail flushed) when
/// `batch_size > 1`, per-element `Observe` otherwise. The single feed
/// loop shared by the harness, the benches, and applications.
void IngestStream(StreamSink& sink, const Dataset& dataset,
                  std::span<const size_t> order, size_t batch_size);

}  // namespace fdm

#endif  // FDM_CORE_STREAM_SINK_H_
