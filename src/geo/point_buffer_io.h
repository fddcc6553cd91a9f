#ifndef FDM_GEO_POINT_BUFFER_IO_H_
#define FDM_GEO_POINT_BUFFER_IO_H_

#include <cstdint>
#include <span>

#include "geo/point_buffer.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fdm {

/// Snapshot serialization of a `PointBuffer` — the storage unit behind
/// every streaming candidate, so this is the byte layout most of a sink
/// snapshot consists of. Structure-of-arrays, one length-prefixed bulk
/// array per field:
///
///   dim u64 | ids i64-span | groups i32-span | coords double-span
///
/// (span = u64 count + raw little-endian elements; the three counts must
/// agree — size, size, size·dim). Coordinates are point-major, in storage
/// order, whatever the in-memory layout: the writer gathers them out of
/// the kernel blocks. They round-trip bit-exactly (raw
/// IEEE-754 doubles), which is what makes a restored sink's `Solve()`
/// bit-identical to the uninterrupted run.
void SerializePointBuffer(SnapshotWriter& writer, const PointBuffer& buffer);

/// Writes `buffer`'s points `rows`, in that order, exactly as
/// `SerializePointBuffer` writes a buffer that holds just them.
void SerializePointRows(SnapshotWriter& writer, const PointBuffer& buffer,
                        std::span<const uint32_t> rows);

/// Appends the serialized points into `buffer`, which must be constructed
/// with the matching dimension (typically empty). On malformed input the
/// reader's sticky status is set and `buffer` is left partially filled —
/// callers check `reader.ok()` before using the result.
void DeserializePointBuffer(SnapshotReader& reader, PointBuffer& buffer);

}  // namespace fdm

#endif  // FDM_GEO_POINT_BUFFER_IO_H_
