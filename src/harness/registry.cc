#include "harness/registry.h"

#include <utility>

#include "baselines/fair_flow.h"
#include "baselines/fair_gmm.h"
#include "baselines/fair_swap.h"
#include "core/gmm.h"
#include "service/sink_spec.h"

namespace fdm {

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

/// Every streaming kind is built the way the server builds a session's
/// sink: the dataset's shape and the run's config as a `SinkSpec`, made by
/// `SinkSpec::MakeSink`.
AlgorithmEntry StreamingEntry(std::string name, std::string algo) {
  AlgorithmEntry entry;
  entry.name = std::move(name);
  entry.streaming = true;
  entry.make_sink = [algo = std::move(algo)](const Dataset& dataset,
                                             const RunConfig& config) {
    SinkSpec spec;
    spec.algo = algo;
    spec.dim = dataset.dim();
    spec.metric = dataset.metric_kind();
    spec.epsilon = config.epsilon;
    spec.d_min = config.bounds.min;
    spec.d_max = config.bounds.max;
    if (algo == "sfdm1" || algo == "sfdm2") {
      spec.quotas = config.constraint.quotas;
    } else {
      spec.k = config.constraint.TotalK();
    }
    spec.shards = config.num_shards;
    // Window 0 covers the whole dataset, making the windowed run directly
    // comparable to the one-pass algorithms on the same stream.
    spec.window = config.window_size > 0
                      ? config.window_size
                      : static_cast<int64_t>(dataset.size());
    spec.checkpoints = config.window_checkpoints;
    return spec.MakeSink();
  };
  return entry;
}

}  // namespace

AlgorithmRegistry::AlgorithmRegistry()
    : entries_{
          {AlgorithmKind::kGmm, GmmEntry()},
          {AlgorithmKind::kFairSwap, FairSwapEntry()},
          {AlgorithmKind::kFairFlow, FairFlowEntry()},
          {AlgorithmKind::kFairGmm, FairGmmEntry()},
          {AlgorithmKind::kSfdm1, StreamingEntry("SFDM1", "sfdm1")},
          {AlgorithmKind::kSfdm2, StreamingEntry("SFDM2", "sfdm2")},
          {AlgorithmKind::kStreamingDm,
           StreamingEntry("StreamingDM", "streaming_dm")},
          {AlgorithmKind::kSharded, StreamingEntry("ShardedDM", "sharded")},
          {AlgorithmKind::kSlidingWindow,
           StreamingEntry("SlidingWindowDM", "sliding_window")},
      } {}

const AlgorithmRegistry& AlgorithmRegistry::Instance() {
  static const AlgorithmRegistry registry;
  return registry;
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
