#include "harness/registry.h"

#include <utility>

#include "baselines/fair_flow.h"
#include "baselines/fair_gmm.h"
#include "baselines/fair_swap.h"
#include "core/gmm.h"
#include "core/sink_snapshot.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/sharded_stream.h"
#include "core/sliding_window.h"

namespace fdm {

StreamingOptions StreamingOptionsFrom(const RunConfig& config) {
  StreamingOptions streaming;
  streaming.epsilon = config.epsilon;
  streaming.d_min = config.bounds.min;
  streaming.d_max = config.bounds.max;
  return streaming;
}

namespace {

/// Offline runs derive a deterministic GMM start index from the
/// permutation seed (the streaming runs use the seed for the stream order
/// instead).
size_t StartIndexFor(const Dataset& dataset, const RunConfig& config) {
  return static_cast<size_t>(config.permutation_seed % dataset.size());
}

AlgorithmEntry GmmEntry() {
  AlgorithmEntry entry;
  entry.name = "GMM";
  entry.solve = [](const Dataset& dataset, const RunConfig& config) {
    std::vector<size_t> universe(dataset.size());
    for (size_t i = 0; i < universe.size(); ++i) universe[i] = i;
    const std::vector<size_t> rows =
        GreedyGmm(dataset, universe,
                  static_cast<size_t>(config.constraint.TotalK()), {},
                  StartIndexFor(dataset, config));
    return Result<Solution>(Solution::FromIndices(dataset, rows));
  };
  return entry;
}

AlgorithmEntry FairSwapEntry() {
  AlgorithmEntry entry;
  entry.name = "FairSwap";
  entry.solve = [](const Dataset& dataset, const RunConfig& config) {
    return FairSwap(dataset, config.constraint,
                    StartIndexFor(dataset, config));
  };
  return entry;
}

AlgorithmEntry FairFlowEntry() {
  AlgorithmEntry entry;
  entry.name = "FairFlow";
  entry.solve = [](const Dataset& dataset, const RunConfig& config) {
    FairFlowOptions options;
    options.epsilon = config.epsilon;
    options.start_index = StartIndexFor(dataset, config);
    return FairFlow(dataset, config.constraint, options);
  };
  return entry;
}

AlgorithmEntry FairGmmEntry() {
  AlgorithmEntry entry;
  entry.name = "FairGMM";
  entry.solve = [](const Dataset& dataset, const RunConfig& config) {
    FairGmmOptions options;
    options.start_index = StartIndexFor(dataset, config);
    return FairGmm(dataset, config.constraint, options);
  };
  return entry;
}

AlgorithmEntry Sfdm1Entry() {
  AlgorithmEntry entry;
  entry.name = "SFDM1";
  entry.streaming = true;
  entry.make_sink = [](const Dataset& dataset, const RunConfig& config) {
    return WrapSink(Sfdm1::Create(config.constraint, dataset.dim(),
                                  dataset.metric_kind(),
                                  StreamingOptionsFrom(config)));
  };
  return entry;
}

AlgorithmEntry Sfdm2Entry() {
  AlgorithmEntry entry;
  entry.name = "SFDM2";
  entry.streaming = true;
  entry.make_sink = [](const Dataset& dataset, const RunConfig& config) {
    return WrapSink(Sfdm2::Create(config.constraint, dataset.dim(),
                                  dataset.metric_kind(),
                                  StreamingOptionsFrom(config)));
  };
  return entry;
}

AlgorithmEntry StreamingDmEntry() {
  AlgorithmEntry entry;
  entry.name = "StreamingDM";
  entry.streaming = true;
  entry.make_sink = [](const Dataset& dataset, const RunConfig& config) {
    return WrapSink(StreamingDm::Create(config.constraint.TotalK(),
                                        dataset.dim(), dataset.metric_kind(),
                                        StreamingOptionsFrom(config)));
  };
  return entry;
}

AlgorithmEntry ShardedEntry() {
  AlgorithmEntry entry;
  entry.name = "ShardedDM";
  entry.streaming = true;
  entry.make_sink = [](const Dataset& dataset, const RunConfig& config) {
    ShardedStreamingOptions sharding;
    sharding.num_shards = config.num_shards;
    return WrapSink(ShardedStreamingDm::Create(
        config.constraint.TotalK(), dataset.dim(), dataset.metric_kind(),
        StreamingOptionsFrom(config), sharding));
  };
  return entry;
}

AlgorithmEntry SlidingWindowEntry() {
  AlgorithmEntry entry;
  entry.name = "SlidingWindowDM";
  entry.streaming = true;
  entry.make_sink = [](const Dataset& dataset, const RunConfig& config) {
    // Window 0 covers the whole dataset, making the windowed run directly
    // comparable to the one-pass algorithms on the same stream.
    const int64_t window =
        config.window_size > 0 ? config.window_size
                               : static_cast<int64_t>(dataset.size());
    int64_t checkpoints = config.window_checkpoints;
    if (checkpoints < 1) checkpoints = 1;
    if (checkpoints > window) checkpoints = window;
    const int k = config.constraint.TotalK();
    const size_t dim = dataset.dim();
    const MetricKind metric = dataset.metric_kind();
    const StreamingOptions streaming = StreamingOptionsFrom(config);
    return WrapSink(SlidingWindow<StreamingDm>::Create(
        window, checkpoints, [k, dim, metric, streaming] {
          return StreamingDm::Create(k, dim, metric, streaming);
        }));
  };
  return entry;
}

}  // namespace

AlgorithmRegistry::AlgorithmRegistry() {
  Register(AlgorithmKind::kGmm, GmmEntry());
  Register(AlgorithmKind::kFairSwap, FairSwapEntry());
  Register(AlgorithmKind::kFairFlow, FairFlowEntry());
  Register(AlgorithmKind::kFairGmm, FairGmmEntry());
  Register(AlgorithmKind::kSfdm1, Sfdm1Entry());
  Register(AlgorithmKind::kSfdm2, Sfdm2Entry());
  Register(AlgorithmKind::kStreamingDm, StreamingDmEntry());
  Register(AlgorithmKind::kSharded, ShardedEntry());
  Register(AlgorithmKind::kSlidingWindow, SlidingWindowEntry());
}

AlgorithmRegistry& AlgorithmRegistry::Instance() {
  static AlgorithmRegistry registry;
  return registry;
}

void AlgorithmRegistry::Register(AlgorithmKind kind, AlgorithmEntry entry) {
  entries_[kind] = std::move(entry);
}

const AlgorithmEntry* AlgorithmRegistry::Find(AlgorithmKind kind) const {
  const auto it = entries_.find(kind);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<AlgorithmKind> AlgorithmRegistry::Kinds() const {
  std::vector<AlgorithmKind> kinds;
  kinds.reserve(entries_.size());
  for (const auto& [kind, entry] : entries_) kinds.push_back(kind);
  return kinds;
}

}  // namespace fdm
