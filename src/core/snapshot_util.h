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

/// The reserved i32 of the streaming, sharded and adaptive snapshot
/// headers. It once held a per-sink solve width; the width is now one
/// process-wide setting (core/solve_pool.h) and no part of sink state.
/// The slot keeps the layout: it is written as 1, so a default sink's
/// snapshot is byte-identical to the older format, and skipped on read,
/// so older snapshots holding any width still restore.
inline void WriteReservedSlot(SnapshotWriter& writer) { writer.WriteI32(1); }
inline void SkipReservedSlot(SnapshotReader& reader) { (void)reader.ReadI32(); }

/// The `(dim, metric, d_min, d_max, ε, batch_threads, reserved)` block
/// shared by the fixed-ladder algorithms' snapshots — one writer/reader
/// pair so the field order can never drift between StreamingDm, Sfdm1,
/// and Sfdm2.
inline void WriteStreamingHeader(SnapshotWriter& writer, size_t dim,
                                 const Metric& metric,
                                 const GuessLadder& ladder,
                                 int batch_threads) {
  writer.WriteU64(dim);
  writer.WriteU8(static_cast<uint8_t>(metric.kind()));
  writer.WriteDouble(ladder.d_min());
  writer.WriteDouble(ladder.d_max());
  writer.WriteDouble(ladder.epsilon());
  writer.WriteI32(batch_threads);
  WriteReservedSlot(writer);
}

struct StreamingHeader {
  size_t dim = 0;
  MetricKind metric = MetricKind::kEuclidean;
  StreamingOptions options;  // d_min, d_max, ε, batch_threads
};

inline StreamingHeader ReadStreamingHeader(SnapshotReader& reader) {
  StreamingHeader header;
  header.dim = reader.ReadU64();
  header.metric = ReadMetricKind(reader);
  header.options.d_min = reader.ReadDouble();
  header.options.d_max = reader.ReadDouble();
  header.options.epsilon = reader.ReadDouble();
  header.options.batch_threads = reader.ReadI32();
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
