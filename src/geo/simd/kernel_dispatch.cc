#include "geo/simd/kernel_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "geo/simd/kernel_targets.h"
#include "obs/metrics.h"

namespace fdm::simd {
namespace {

/// Publishes the live dispatch target as an info-style metric so every
/// METRICS scrape is self-describing about which kernel produced the
/// latency it reports.
void PublishKernelTargetInfo(const KernelOps* ops) {
  obs::MetricsRegistry::Global().SetInfo("fdm_kernel_target",
                                         std::string(ops->name));
}

/// True iff the running CPU can execute the AVX2 target. Compiled-in and
/// runnable are separate questions: a generic x86-64 build still carries
/// the `-mavx2` translation unit, and this check keeps it unreached on
/// pre-Haswell hardware.
bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
#else
  return false;
#endif
}

/// True iff the running CPU can execute the AVX-512 target. The target
/// uses only the F (foundation) subset, so that is the only cpuid bit
/// checked.
bool CpuSupportsAvx512F() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Every target name any build of this binary could know, across
/// architectures — the vocabulary `FDM_KERNEL` is validated against.
/// A name outside this list is a typo and fails loudly; a name inside it
/// that is not *available* here merely warns and falls back.
constexpr std::string_view kKnownTargets[] = {"scalar", "avx2", "avx512"};

bool IsKnownTargetName(std::string_view name) {
  for (const std::string_view known : kKnownTargets) {
    if (known == name) return true;
  }
  return false;
}

const KernelOps* FindByName(const std::vector<const KernelOps*>& targets,
                            std::string_view name) {
  for (const KernelOps* ops : targets) {
    if (ops->name == name) return ops;
  }
  return nullptr;
}

struct Dispatch {
  /// Available targets in preference order: scalar first, best last.
  std::vector<const KernelOps*> available;
  /// The process default after applying the FDM_KERNEL override.
  const KernelOps* standard = nullptr;
  /// The live table; only `ForceKernelTargetForTest` moves it afterwards.
  std::atomic<const KernelOps*> active{nullptr};

  Dispatch() {
    available.push_back(&internal::ScalarKernelOps());
    if (const KernelOps* avx2 = internal::Avx2KernelOpsOrNull();
        avx2 != nullptr && CpuSupportsAvx2()) {
      available.push_back(avx2);
    }
    if (const KernelOps* avx512 = internal::Avx512KernelOpsOrNull();
        avx512 != nullptr && CpuSupportsAvx512F()) {
      available.push_back(avx512);
    }
    standard = available.back();
    if (const char* env = std::getenv("FDM_KERNEL");
        env != nullptr && env[0] != '\0') {
      if (const KernelOps* forced = FindByName(available, env)) {
        standard = forced;
      } else if (IsKnownTargetName(env)) {
        // A real target this machine can't run (wrong arch or missing
        // cpuid feature): a pinned CI recipe degrades loudly, once.
        std::fprintf(stderr,
                     "fdm: FDM_KERNEL=%s is not supported by this "
                     "machine/build; using '%s'\n",
                     env, std::string(standard->name).c_str());
      } else {
        // Not a target name at all — a typo would otherwise silently
        // benchmark or test the wrong code path. Fail loudly instead.
        std::string valid;
        for (const std::string_view known : kKnownTargets) {
          if (!valid.empty()) valid += ", ";
          valid += known;
        }
        std::fprintf(stderr,
                     "fdm: FDM_KERNEL=%s is not a valid kernel target; "
                     "valid targets: %s\n",
                     env, valid.c_str());
        std::exit(2);
      }
    }
    active.store(standard, std::memory_order_relaxed);
    PublishKernelTargetInfo(standard);
  }
};

Dispatch& GetDispatch() {
  static Dispatch dispatch;
  return dispatch;
}

}  // namespace

const KernelOps& ActiveKernelOps() {
  return *GetDispatch().active.load(std::memory_order_relaxed);
}

std::string_view ActiveKernelName() { return ActiveKernelOps().name; }

std::vector<std::string_view> AvailableKernelTargets() {
  std::vector<std::string_view> names;
  for (const KernelOps* ops : GetDispatch().available) {
    names.push_back(ops->name);
  }
  return names;
}

namespace internal {

bool ForceKernelTargetForTest(std::string_view name) {
  Dispatch& d = GetDispatch();
  if (name.empty()) {
    d.active.store(d.standard, std::memory_order_relaxed);
    PublishKernelTargetInfo(d.standard);
    return true;
  }
  const KernelOps* target = FindByName(d.available, name);
  if (target == nullptr) return false;
  d.active.store(target, std::memory_order_relaxed);
  PublishKernelTargetInfo(target);
  return true;
}

KernelEnvClass ClassifyKernelEnv(std::string_view name) {
  if (FindByName(GetDispatch().available, name) != nullptr) {
    return KernelEnvClass::kAvailable;
  }
  return IsKnownTargetName(name) ? KernelEnvClass::kKnownUnavailable
                                 : KernelEnvClass::kUnknown;
}

}  // namespace internal

}  // namespace fdm::simd
