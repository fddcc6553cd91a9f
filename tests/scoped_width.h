#ifndef FDM_TESTS_SCOPED_WIDTH_H_
#define FDM_TESTS_SCOPED_WIDTH_H_

// Sets the process-wide fan-out width (core/parallelism.h) for one scope
// and restores the default (1, sequential) when the scope ends — also when
// an assertion returns early.

#include <gtest/gtest.h>

#include "core/parallelism.h"

namespace fdm {

class ScopedWidth {
 public:
  explicit ScopedWidth(int threads) { Set(threads); }
  ~ScopedWidth() { Set(1); }
  ScopedWidth(const ScopedWidth&) = delete;
  ScopedWidth& operator=(const ScopedWidth&) = delete;
  void Set(int threads) {
    ASSERT_TRUE(Parallelism::SetThreads(threads).ok()) << threads;
  }
};

}  // namespace fdm

#endif  // FDM_TESTS_SCOPED_WIDTH_H_
