#ifndef FDM_CORE_SLIDING_WINDOW_H_
#define FDM_CORE_SLIDING_WINDOW_H_

#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "core/snapshot_util.h"
#include "core/solution.h"
#include "core/stream_sink.h"
#include "geo/point_buffer.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/status.h"

namespace fdm {

/// Sliding-window adapter over any one-pass diversity algorithm
/// (`StreamingDm`, `Sfdm1`, `Sfdm2`) — the paper's future-work setting
/// ("diversity maximization problems with fairness constraints in more
/// general settings, e.g., the sliding-window model").
///
/// Design: checkpointed replicas. A fresh instance of the underlying
/// algorithm is started every `window / checkpoints` elements; an instance
/// whose start has slid out of the window can hold expired elements and is
/// discarded. Queries are answered by the oldest instance started inside
/// the window, which covers a suffix of at least
/// `window · (1 − 1/checkpoints)` of the most recent elements — so every
/// reported element is guaranteed in-window, and the approximation is with
/// respect to that suffix. More checkpoints narrow the uncovered prefix at
/// a linear cost in memory (instances alive ≤ checkpoints + 1).
///
/// This is the standard practical checkpointing scheme, not the
/// theoretically stronger smooth-histogram construction of Borassi et
/// al. [7]; the trade-off is documented here and in DESIGN.md §2.5.
///
/// The adapter is itself a `StreamSink`, so the harness, the service
/// layer, and WAL replay drive it through the same contract as the
/// one-pass algorithms. `Observe` cannot report a factory failure through
/// the sink interface, so a mid-stream factory error latches a sticky
/// error that the next `Solve()` returns (Create probes the factory once,
/// so this only fires for genuinely stateful factories).
///
/// `Algo` must provide `Observe(const StreamPoint&)`,
/// `Result<Solution> Solve() const`, `size_t StoredElements() const`, and
/// — for `Snapshot`/`Restore` — the static `Restore(SnapshotReader&)` hook
/// plus copyability.
///
/// A query is answered by exactly one replica (the oldest in-window one —
/// the others exist for coverage, not for answering), so query-path
/// parallelism lives inside that replica's own rung fan-out rather than
/// across checkpoints; replicas that will never answer are not solved.
template <typename Algo>
class SlidingWindow : public StreamSink {
 public:
  /// Creates fresh instances of the underlying algorithm.
  using Factory = std::function<Result<Algo>()>;

  static constexpr std::string_view kSnapshotTag = "sliding_window";

  /// `window` is the number of most recent elements a solution may use;
  /// `checkpoints >= 1` controls the coverage granularity.
  static Result<SlidingWindow> Create(int64_t window, int64_t checkpoints,
                                      Factory factory) {
    if (window < 1) return Status::InvalidArgument("window must be >= 1");
    if (checkpoints < 1 || checkpoints > window) {
      return Status::InvalidArgument(
          "checkpoints must be in [1, window]");
    }
    if (!factory) return Status::InvalidArgument("factory must be set");
    // Validate the factory up front so configuration errors surface at
    // Create, not at the first Observe.
    Result<Algo> probe = factory();
    if (!probe.ok()) return probe.status();
    return SlidingWindow(window, (window + checkpoints - 1) / checkpoints,
                         std::move(factory));
  }

  /// Feeds one element to every live replica and manages their lifecycle.
  /// Returns true iff the element mutated state: it spawned a replica, was
  /// kept by some replica, or rolled the window (dropped an expired
  /// replica — which changes the replica that answers `Solve`).
  bool Observe(const StreamPoint& point) override {
    if (!error_.ok()) return false;  // latched factory failure; stream dead
    bool mutated = false;
    // Start a new replica at every stride boundary.
    if (position_ % stride_ == 0) {
      Result<Algo> fresh = factory_();
      if (!fresh.ok()) {
        // Latching the error changes what Solve() returns, so it counts
        // as a state mutation and advances the version — a version-keyed
        // cache would otherwise keep serving the stale pre-error solution
        // and mask the dead stream.
        error_ = fresh.status();
        ++state_version_;
        return true;
      }
      replicas_.push_back({position_, std::move(fresh.value())});
      mutated = true;
    }
    for (auto& replica : replicas_) {
      if (replica.algo.Observe(point)) mutated = true;
    }
    ++position_;
    // Drop replicas that started before the window: they may hold expired
    // elements and can never become valid again. Because a replica spawns
    // every `stride_ <= window_` positions, at least one replica always
    // starts inside the window, so this never empties the deque.
    const int64_t window_start = WindowStart();
    while (!replicas_.empty() && replicas_.front().start < window_start) {
      replicas_.pop_front();
      mutated = true;
    }
    FDM_DCHECK(!replicas_.empty());
    if (mutated) ++state_version_;
    return mutated;
  }

  /// Advances once per mutating `Observe` (chunking-invariant: the
  /// inherited `ObserveBatch` is the per-element loop). `Solve()` answers
  /// from the front replica, which changes only on a spawn/keep/drop — all
  /// of which advance the version.
  uint64_t StateVersion() const override { return state_version_; }

  /// Solution over (a suffix of) the current window. Every element id in
  /// the result was observed within the last `window` elements.
  Result<Solution> Solve() const override {
    if (!error_.ok()) return error_;
    const int64_t window_start = WindowStart();
    for (const auto& replica : replicas_) {
      if (replica.start >= window_start) {
        return replica.algo.Solve();
      }
    }
    return Status::Infeasible(
        "no replica covers the current window yet (stream shorter than one "
        "checkpoint stride)");
  }

  /// Elements stored across all live replicas.
  size_t StoredElements() const override {
    size_t total = 0;
    for (const auto& replica : replicas_) {
      total += replica.algo.StoredElements();
    }
    return total;
  }

  int64_t ObservedElements() const override { return position_; }

  /// Serializes the window geometry, a pristine instance of the underlying
  /// algorithm (the restored factory clones it for future replicas), and
  /// every live replica. See `StreamSink::Snapshot`.
  Status Snapshot(SnapshotWriter& writer) const override {
    if (!error_.ok()) return error_;
    Result<Algo> pristine = factory_();
    if (!pristine.ok()) return pristine.status();
    writer.WriteString(kSnapshotTag);
    writer.WriteI64(window_);
    writer.WriteI64(stride_);
    writer.WriteI64(position_);
    writer.WriteU64(state_version_);
    if (Status s = pristine.value().Snapshot(writer); !s.ok()) return s;
    writer.WriteU64(replicas_.size());
    for (const auto& replica : replicas_) {
      writer.WriteI64(replica.start);
      if (Status s = replica.algo.Snapshot(writer); !s.ok()) return s;
    }
    return Status::Ok();
  }

  /// Rebuilds the adapter from a snapshot. The factory for future replicas
  /// copies the serialized pristine instance, so the restored adapter keeps
  /// spawning replicas with the original configuration.
  static Result<SlidingWindow> Restore(SnapshotReader& reader) {
    if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
    const int64_t window = reader.ReadI64();
    const int64_t stride = reader.ReadI64();
    const int64_t position = reader.ReadI64();
    const uint64_t state_version = reader.ReadU64();
    if (!reader.ok()) return reader.status();
    Result<Algo> pristine = Algo::Restore(reader);
    if (!pristine.ok()) return pristine.status();
    auto prototype =
        std::make_shared<const Algo>(std::move(pristine.value()));
    if (prototype->ObservedElements() != 0) {
      reader.Fail("sliding-window prototype has observed elements");
      return reader.status();
    }
    const size_t replica_count = reader.ReadU64();
    if (!reader.ok()) return reader.status();
    if (stride < 1 || window < 1 ||
        replica_count > static_cast<size_t>(window / stride) + 2) {
      reader.Fail("implausible sliding-window geometry");
      return reader.status();
    }
    SlidingWindow restored(window, stride,
                           [prototype]() -> Result<Algo> {
                             return Algo(*prototype);
                           });
    for (size_t r = 0; r < replica_count; ++r) {
      const int64_t start = reader.ReadI64();
      Result<Algo> algo = Algo::Restore(reader);
      if (!algo.ok()) return algo.status();
      restored.replicas_.push_back({start, std::move(algo.value())});
    }
    if (!reader.ok()) return reader.status();
    restored.position_ = position;
    restored.state_version_ = state_version;
    return restored;
  }

  int64_t window() const { return window_; }
  size_t live_replicas() const { return replicas_.size(); }

  /// The latched factory error, if any (`Ok` during normal operation).
  const Status& error() const { return error_; }

 private:
  struct Replica {
    int64_t start;
    Algo algo;
  };

  SlidingWindow(int64_t window, int64_t stride, Factory factory)
      : window_(window), stride_(stride), factory_(std::move(factory)) {}

  /// First stream position inside the current window
  /// `[position_ - window_, position_ - 1]`.
  int64_t WindowStart() const {
    return position_ > window_ ? position_ - window_ : 0;
  }

  int64_t window_;
  int64_t stride_;
  Factory factory_;
  std::deque<Replica> replicas_;
  int64_t position_ = 0;
  uint64_t state_version_ = 0;
  Status error_;
};

}  // namespace fdm

#endif  // FDM_CORE_SLIDING_WINDOW_H_
