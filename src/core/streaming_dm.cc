#include "core/streaming_dm.h"

#include <string>

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
  auto best = BestFullCandidate(
      rungs(),
      [this](size_t j) -> const StreamingCandidate& { return blind(j); },
      &pool(), k(), metric());
  if (!best.has_value()) {
    return Status::Infeasible(
        "no candidate reached k=" + std::to_string(k()) +
        " elements; the stream has fewer than k sufficiently distinct "
        "points or d_min is overestimated");
  }
  return *std::move(best);
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
