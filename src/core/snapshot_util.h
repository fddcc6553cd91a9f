#ifndef FDM_CORE_SNAPSHOT_UTIL_H_
#define FDM_CORE_SNAPSHOT_UTIL_H_

#include <string>
#include <string_view>

#include "core/guess_ladder.h"
#include "core/streaming_dm.h"
#include "geo/metric.h"
#include "geo/point_buffer_io.h"
#include "util/binary_io.h"

namespace fdm::internal {

/// Consumes the type tag at the cursor; fails the reader (sticky) if it is
/// not `expected`. Returns `reader.ok()` so deserializers can early-out.
inline bool ConsumeTag(SnapshotReader& reader, std::string_view expected) {
  const std::string tag = reader.ReadString();
  if (reader.ok() && tag != expected) {
    reader.Fail("type tag '" + tag + "' where '" + std::string(expected) +
                "' was expected");
  }
  return reader.ok();
}

/// Reads a `MetricKind` byte, failing the reader on out-of-range values.
inline MetricKind ReadMetricKind(SnapshotReader& reader) {
  const uint8_t byte = reader.ReadU8();
  if (reader.ok() && byte > static_cast<uint8_t>(MetricKind::kAngular)) {
    reader.Fail("metric kind byte " + std::to_string(byte) + " out of range");
  }
  return static_cast<MetricKind>(byte);
}

/// A reserved i32 of the snapshot headers. The streaming and sharded
/// headers hold two, which once held the per-sink ingest width
/// (`batch_threads`) and the per-sink solve width; the adaptive header
/// holds one, which once held its solve width. Both widths are now the one
/// process-wide setting (core/parallelism.h) and no part of sink state.
/// The slots keep the layout: each is written as 1, so a spec- or
/// harness-built sink's snapshot is byte-identical to the older format,
/// and skipped on read, so older snapshots holding any width (the sharded
/// API default wrote 0 into the batch slot) still restore.
inline void WriteReservedSlot(SnapshotWriter& writer) { writer.WriteI32(1); }
inline void SkipReservedSlot(SnapshotReader& reader) { (void)reader.ReadI32(); }

/// The `(dim, metric, d_min, d_max, ε, reserved, reserved)` block shared
/// by the fixed-ladder algorithms' snapshots — one writer/reader pair so
/// the field order can never drift between StreamingDm, Sfdm1, and Sfdm2.
inline void WriteStreamingHeader(SnapshotWriter& writer, size_t dim,
                                 const Metric& metric,
                                 const GuessLadder& ladder) {
  writer.WriteU64(dim);
  writer.WriteU8(static_cast<uint8_t>(metric.kind()));
  writer.WriteDouble(ladder.d_min());
  writer.WriteDouble(ladder.d_max());
  writer.WriteDouble(ladder.epsilon());
  WriteReservedSlot(writer);
  WriteReservedSlot(writer);
}

struct StreamingHeader {
  size_t dim = 0;
  MetricKind metric = MetricKind::kEuclidean;
  StreamingOptions options;  // d_min, d_max, ε
};

inline StreamingHeader ReadStreamingHeader(SnapshotReader& reader) {
  StreamingHeader header;
  header.dim = reader.ReadU64();
  header.metric = ReadMetricKind(reader);
  header.options.d_min = reader.ReadDouble();
  header.options.d_max = reader.ReadDouble();
  header.options.epsilon = reader.ReadDouble();
  SkipReservedSlot(reader);
  SkipReservedSlot(reader);
  return header;
}

/// Restores one candidate's points, enforcing its capacity bound.
template <typename Candidate>
void RestoreCandidatePoints(SnapshotReader& reader, Candidate& candidate) {
  DeserializePointBuffer(reader, candidate.MutablePointsForRestore());
  if (reader.ok() && candidate.points().size() > candidate.capacity()) {
    reader.Fail("candidate holds " + std::to_string(candidate.points().size()) +
                " points, capacity " + std::to_string(candidate.capacity()));
  }
}

}  // namespace fdm::internal

#endif  // FDM_CORE_SNAPSHOT_UTIL_H_
