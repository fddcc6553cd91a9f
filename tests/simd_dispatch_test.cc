// The runtime kernel-dispatch layer: target discovery, the FDM_KERNEL
// override (including its hard-fail path for unknown names), and the
// test-force hook. The bit-exactness of the targets themselves is covered
// by point_buffer_kernels_test.cc; this file pins the dispatch *mechanics*
// the CI matrix relies on.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "geo/simd/kernel_dispatch.h"
#include "geo/simd/kernel_types.h"

namespace fdm::simd {
namespace {

bool IsAvailable(std::string_view name) {
  for (const std::string_view t : AvailableKernelTargets()) {
    if (t == name) return true;
  }
  return false;
}

TEST(SimdDispatchTest, ScalarIsAlwaysAvailableAndFirst) {
  const std::vector<std::string_view> targets = AvailableKernelTargets();
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets.front(), "scalar");
  for (const std::string_view t : targets) {
    EXPECT_TRUE(t == "scalar" || t == "avx2" || t == "avx512")
        << "unexpected target " << t;
  }
}

TEST(SimdDispatchTest, Avx2ListedWhenCpuSupportsIt) {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  // The avx2 TU is always compiled on x86-64, so the target is listed
  // exactly when cpuid says avx2. The default-target test compares against
  // this same list, so without this check a dispatch that silently fell
  // back to scalar would pass every other test.
  EXPECT_EQ(IsAvailable("avx2"), __builtin_cpu_supports("avx2") != 0);
#else
  GTEST_SKIP() << "avx2 availability is x86-64-only";
#endif
}

TEST(SimdDispatchTest, Avx512ListedWhenCpuSupportsIt) {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  // The availability rule is exactly "compiled in && cpuid says avx512f".
  // The TU is always compiled on x86-64 (CMake adds -mavx512f whenever the
  // compiler accepts it), so on hardware with the foundation subset the
  // target must be discoverable — this is what lets the CI matrix leg run
  // the avx512 ctest pass instead of skipping.
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_TRUE(IsAvailable("avx512"));
  } else {
    EXPECT_FALSE(IsAvailable("avx512"));
  }
#else
  GTEST_SKIP() << "avx512 availability is x86-64-only";
#endif
}

TEST(SimdDispatchTest, ActiveTargetHonorsEnvironmentOverride) {
  // The dispatch table is resolved once per process, so this test can only
  // assert consistency with whatever environment it was launched under —
  // which is exactly what the CI matrix legs do (ctest under
  // FDM_KERNEL=scalar / avx2 / avx512).
  const std::vector<std::string_view> targets = AvailableKernelTargets();
  const char* env = std::getenv("FDM_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    bool available = false;
    for (const std::string_view t : targets) {
      if (t == env) available = true;
    }
    if (available) {
      EXPECT_EQ(ActiveKernelName(), env);
      return;
    }
  }
  // No (usable) override: the default is the best available target.
  EXPECT_EQ(ActiveKernelName(), targets.back());
}

TEST(SimdDispatchTest, ForceForTestSwitchesAndRestores) {
  const std::string default_name(ActiveKernelName());
  for (const std::string_view target : AvailableKernelTargets()) {
    ASSERT_TRUE(internal::ForceKernelTargetForTest(target));
    EXPECT_EQ(ActiveKernelName(), target);
    // Every slot of the forced table is populated — min-reductions,
    // batched min-reductions, and the offline one-to-many dists ops.
    const KernelOps& ops = ActiveKernelOps();
    EXPECT_NE(ops.euclidean_min, nullptr);
    EXPECT_NE(ops.manhattan_min, nullptr);
    EXPECT_NE(ops.angular_min, nullptr);
    EXPECT_NE(ops.euclidean_min_many, nullptr);
    EXPECT_NE(ops.manhattan_min_many, nullptr);
    EXPECT_NE(ops.angular_min_many, nullptr);
    EXPECT_NE(ops.euclidean_dists, nullptr);
    EXPECT_NE(ops.manhattan_dists, nullptr);
    EXPECT_NE(ops.angular_dists, nullptr);
  }
  EXPECT_FALSE(internal::ForceKernelTargetForTest("sse9"));
  // An unknown target changes nothing.
  EXPECT_EQ(ActiveKernelName(), AvailableKernelTargets().back());
  ASSERT_TRUE(internal::ForceKernelTargetForTest(""));
  EXPECT_EQ(ActiveKernelName(), default_name);
}

TEST(SimdDispatchTest, ClassifyKernelEnvThreeWaySplit) {
  // Every available target classifies as available; every *known* name
  // that is not available here (e.g. "avx512" on an old CPU, or anything
  // but "scalar" off x86-64) classifies as known-but-unavailable — the
  // warn-and-fall-back path. Anything else is unknown — the fail-loudly
  // path.
  for (const std::string_view known : {"scalar", "avx2", "avx512"}) {
    const internal::KernelEnvClass c = internal::ClassifyKernelEnv(known);
    if (IsAvailable(known)) {
      EXPECT_EQ(c, internal::KernelEnvClass::kAvailable) << known;
    } else {
      EXPECT_EQ(c, internal::KernelEnvClass::kKnownUnavailable) << known;
    }
  }
  EXPECT_EQ(internal::ClassifyKernelEnv("sse9"),
            internal::KernelEnvClass::kUnknown);
  EXPECT_EQ(internal::ClassifyKernelEnv("neon"),
            internal::KernelEnvClass::kUnknown);  // no such target
  EXPECT_EQ(internal::ClassifyKernelEnv("AVX2"),
            internal::KernelEnvClass::kUnknown);  // names are exact
  EXPECT_EQ(internal::ClassifyKernelEnv(""),
            internal::KernelEnvClass::kUnknown);
}

// End-to-end check of the hard-fail path: a process launched with a
// garbage FDM_KERNEL must exit with status 2 and print the valid-target
// list. The threadsafe death-test style re-executes the test binary from
// scratch in the child, so the child's (modified) environment drives a
// fresh dispatch resolution — the fork-style default would inherit the
// parent's already-resolved table and never hit the env parse.
TEST(SimdDispatchTest, GarbageEnvFailsLoudlyWithValidTargetList) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* prior = std::getenv("FDM_KERNEL");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("FDM_KERNEL", "sse9", /*overwrite=*/1);
  EXPECT_EXIT({ (void)ActiveKernelName(); }, testing::ExitedWithCode(2),
              "FDM_KERNEL=sse9 is not a valid kernel target; valid targets: "
              "scalar, avx2, avx512");
  if (prior != nullptr) {
    ::setenv("FDM_KERNEL", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("FDM_KERNEL");
  }
}

}  // namespace
}  // namespace fdm::simd
