#ifndef FDM_TESTS_FILE_BYTES_H_
#define FDM_TESTS_FILE_BYTES_H_

// A whole file's bytes, for tests that compare files byte for byte.

#include <string>

#include "util/binary_io.h"
#include "util/status.h"

namespace fdm {

inline Result<std::string> FileBytes(const std::string& path) {
  auto range = OpenFileRange(path, 0);
  if (!range.ok()) return range.status();
  std::string bytes;
  if (Status s = AppendFileRange(*range, &bytes); !s.ok()) return s;
  return bytes;
}

}  // namespace fdm

#endif  // FDM_TESTS_FILE_BYTES_H_
