#include "geo/point_buffer_io.h"

#include <string>
#include <vector>

namespace fdm {

void SerializePointBuffer(SnapshotWriter& writer, const PointBuffer& buffer) {
  writer.WriteU64(buffer.dim());
  writer.WriteI64Span(buffer.ids());
  writer.WriteI32Span(buffer.groups());
  // Gathered point-major out of the blocks into reused scratch
  // (thread-local: the snapshot sweep serializes sessions on pool threads).
  thread_local std::vector<double> coords;
  const size_t dim = buffer.dim();
  coords.resize(buffer.size() * dim);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer.GatherCoords(i, std::span<double>(coords).subspan(i * dim, dim));
  }
  writer.WriteDoubleSpan(coords);
}

void DeserializePointBuffer(SnapshotReader& reader, PointBuffer& buffer) {
  const uint64_t dim = reader.ReadU64();
  if (!reader.ok()) return;
  if (dim != buffer.dim()) {
    reader.Fail("point buffer dim " + std::to_string(dim) +
                " does not match expected " + std::to_string(buffer.dim()));
    return;
  }
  const std::vector<int64_t> ids = reader.ReadI64Vec();
  const std::vector<int32_t> groups = reader.ReadI32Vec();
  const std::vector<double> coords = reader.ReadDoubleVec();
  if (!reader.ok()) return;
  if (groups.size() != ids.size() || coords.size() != ids.size() * dim) {
    reader.Fail("point buffer arrays disagree: " + std::to_string(ids.size()) +
                " ids, " + std::to_string(groups.size()) + " groups, " +
                std::to_string(coords.size()) + " coords for dim " +
                std::to_string(dim));
    return;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    buffer.Add(StreamPoint{
        ids[i], groups[i],
        std::span<const double>(coords.data() + i * dim, dim)});
  }
}

}  // namespace fdm
