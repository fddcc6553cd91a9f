#include "core/streaming_dm.h"

#include <string>
#include <vector>

#include "core/diversity.h"
#include "core/parallelism.h"
#include "core/snapshot_util.h"
#include "util/binary_io.h"

namespace fdm {

Result<StreamingDm> StreamingDm::Create(int k, size_t dim, MetricKind metric,
                                        const StreamingOptions& options) {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " + std::to_string(k));
  }
  auto ladder = MakeLadder(dim, options);
  if (!ladder.ok()) return ladder.status();
  return StreamingDm(k, dim, metric, std::move(ladder.value()));
}

Result<Solution> StreamingDm::Solve() const {
  // Phase 1 — per-candidate diversity, fanned out over the width:
  // each task writes only its own slot, and `MinPairwiseDistance` touches
  // nothing but the candidate's points and local scratch. Phase 2 — the
  // winner scan — stays a sequential ascending-µ pass with strict `>`, so
  // the chosen rung (and hence the output) is bit-identical to the
  // sequential path at any thread count.
  std::vector<double> diversity(rungs(), -1.0);
  std::vector<uint8_t> full(rungs(), 0);
  Parallelism::Run(rungs(), [&](size_t j) {
    const StreamingCandidate& candidate = blind(j);
    if (!candidate.Full()) return;
    full[j] = 1;
    diversity[j] = k() >= 2
                       ? MinPairwiseDistance(candidate.points(), metric())
                       : candidate.mu();
  });
  const StreamingCandidate* best = nullptr;
  double best_div = -1.0;
  for (size_t j = 0; j < rungs(); ++j) {
    if (!full[j]) continue;
    if (diversity[j] > best_div) {
      best_div = diversity[j];
      best = &blind(j);
    }
  }
  if (best == nullptr) {
    return Status::Infeasible(
        "no candidate reached k=" + std::to_string(k()) +
        " elements; the stream has fewer than k sufficiently distinct "
        "points or d_min is overestimated");
  }
  Solution solution(dim());
  solution.points = best->points();
  solution.diversity = best_div;
  solution.mu = best->mu();
  return solution;
}

Status StreamingDm::Snapshot(SnapshotWriter& writer) const {
  writer.WriteString(kSnapshotTag);
  writer.WriteI32(k());
  WriteStreamingHeader(writer);
  WriteState(writer);
  return Status::Ok();
}

Result<StreamingDm> StreamingDm::Restore(SnapshotReader& reader) {
  if (!internal::ConsumeTag(reader, kSnapshotTag)) return reader.status();
  const int k = reader.ReadI32();
  const StreamingHeader header = ReadStreamingHeader(reader);
  if (!reader.ok()) return reader.status();
  auto algo = Create(k, header.dim, header.metric, header.options);
  if (!algo.ok()) return algo.status();
  if (Status s = algo->ReadState(reader); !s.ok()) return s;
  return algo;
}

}  // namespace fdm
