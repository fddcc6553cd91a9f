#ifndef FDM_GEO_SIMD_KERNEL_DISPATCH_H_
#define FDM_GEO_SIMD_KERNEL_DISPATCH_H_

#include <string_view>
#include <vector>

#include "geo/simd/kernel_types.h"

namespace fdm::simd {

/// Runtime CPU-feature dispatch for the distance kernels.
///
/// The table is resolved exactly once per process, in this order:
///   1. every compiled-in target the running CPU supports is *available*
///      ("scalar" always; "avx2" / "avx512" via cpuid on x86-64; other
///      architectures run the scalar target);
///   2. if the environment variable `FDM_KERNEL` names an available target
///      ("scalar" | "avx2" | "avx512"), that target is selected —
///      the testing/CI override that pins a build to one code path;
///   3. otherwise the best available target is selected (the last
///      non-scalar entry of `AvailableKernelTargets()`, falling back to
///      scalar).
/// An `FDM_KERNEL` value that names a *known* target this machine cannot
/// run (e.g. avx512 on a pre-Skylake CPU) prints one warning to stderr and
/// falls back to rule 3 — a pinned CI recipe degrades loudly instead of
/// crashing on older hardware. A value that is not a known target at all
/// is a configuration typo: the process prints the valid-target list to
/// stderr and exits with status 2 rather than silently benchmarking or
/// testing the wrong code path.
///
/// All targets are bit-identical by contract (see `kernel_types.h`), so
/// dispatch affects throughput only — every sink's `Solve()` output and
/// stored-element set is the same under any target.

/// The active function-pointer table (cheap: one relaxed atomic load after
/// first use). Hot paths call this once per scan, not per point.
const KernelOps& ActiveKernelOps();

/// Name of the active target ("scalar" | "avx2" | "avx512") —
/// surfaced in serving stats and bench JSONs so recorded numbers are
/// self-describing.
std::string_view ActiveKernelName();

/// Targets compiled into this binary *and* runnable on this CPU, in
/// preference order (scalar first, best last). Tests sweep this list.
std::vector<std::string_view> AvailableKernelTargets();

namespace internal {

/// Test hook: forces the active table to `name` (must be available —
/// returns false and changes nothing otherwise). Passing "" restores the
/// process default (env override or best available). Not thread-safe
/// against concurrent scans; tests force targets only between scans.
bool ForceKernelTargetForTest(std::string_view name);

/// How the dispatcher classifies an `FDM_KERNEL` value on this machine.
/// Factored out of the resolution path so the policy is directly testable
/// (the exit-on-unknown behavior itself is covered by a death test).
enum class KernelEnvClass {
  kAvailable,         // selected
  kKnownUnavailable,  // real target, not runnable here: warn + fall back
  kUnknown,           // not a target name at all: fail loudly (exit 2)
};
KernelEnvClass ClassifyKernelEnv(std::string_view name);

}  // namespace internal

}  // namespace fdm::simd

#endif  // FDM_GEO_SIMD_KERNEL_DISPATCH_H_
