#include "geo/point_buffer_io.h"

#include <string>
#include <vector>

namespace fdm {

namespace {

// Writes `n` points of `buffer`, point `i` from row `row(i)`, in the layout
// of the header comment, gathered point-major into reused scratch
// (thread-local: the snapshot sweep serializes sessions on pool threads).
template <typename Row>
void WritePoints(SnapshotWriter& writer, const PointBuffer& buffer, size_t n,
                 Row row) {
  thread_local std::vector<int64_t> ids;
  thread_local std::vector<int32_t> groups;
  thread_local std::vector<double> coords;
  const size_t dim = buffer.dim();
  ids.resize(n);
  groups.resize(n);
  coords.resize(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = row(i);
    ids[i] = buffer.IdAt(r);
    groups[i] = buffer.GroupAt(r);
    buffer.GatherCoords(r, std::span<double>(coords).subspan(i * dim, dim));
  }
  writer.WriteU64(dim);
  writer.WriteI64Span(ids);
  writer.WriteI32Span(groups);
  writer.WriteDoubleSpan(coords);
}

}  // namespace

void SerializePointBuffer(SnapshotWriter& writer, const PointBuffer& buffer) {
  WritePoints(writer, buffer, buffer.size(), [](size_t i) { return i; });
}

void SerializePointRows(SnapshotWriter& writer, const PointBuffer& buffer,
                        std::span<const uint32_t> rows) {
  WritePoints(writer, buffer, rows.size(),
              [rows](size_t i) -> size_t { return rows[i]; });
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
