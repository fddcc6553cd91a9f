// Cross-target equivalence of the *offline* Solve-path code: every offline
// baseline, the exact enumerators, and the shared offline primitives
// (GreedyGmm, threshold clustering, pairwise diversity) now route their
// distance loops through the dispatched kernel subsystem, and the routing
// contract is bit-identical selection under every target reachable on the
// build machine (scalar always; AVX2/AVX-512 when the CPU has them —
// the same sweep FDM_KERNEL forces externally in CI). The streaming-sink
// counterpart of this test lives in incremental_solve_test.cc.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fair_flow.h"
#include "baselines/fair_gmm.h"
#include "baselines/fair_swap.h"
#include "baselines/max_sum_greedy.h"
#include "core/clustering.h"
#include "core/diversity.h"
#include "core/gmm.h"
#include "data/dataset.h"
#include "exact/brute_force.h"
#include "geo/simd/kernel_dispatch.h"
#include "util/rng.h"

namespace fdm {
namespace {

constexpr MetricKind kAllKinds[] = {MetricKind::kEuclidean,
                                    MetricKind::kManhattan,
                                    MetricKind::kAngular};

/// Random two-group dataset under the requested metric (MakeBlobs is
/// Euclidean-only, and the angular/Manhattan routings deserve the same
/// coverage).
Dataset RandomDataset(MetricKind kind, size_t n, size_t dim, uint64_t seed) {
  Dataset ds("offline-equivalence", dim, 2, kind);
  ds.Reserve(n);
  Rng rng(seed);
  std::vector<double> coords(dim);
  for (size_t i = 0; i < n; ++i) {
    for (double& c : coords) c = rng.NextDouble(-5.0, 5.0);
    ds.Add(coords, static_cast<int32_t>(i % 2));
  }
  return ds;
}

/// Runs `fn` once per reachable dispatch target; asserts every run's
/// result is bit-identical to the first (scalar) run's.
template <typename Fn>
void ExpectSameAcrossTargets(Fn&& fn, std::string_view what) {
  using ResultT = decltype(fn());
  bool have_reference = false;
  ResultT reference{};
  for (const std::string_view target : simd::AvailableKernelTargets()) {
    ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(target));
    const ResultT got = fn();
    if (!have_reference) {
      reference = got;
      have_reference = true;
    } else {
      EXPECT_EQ(reference, got) << what << " diverges under " << target;
    }
  }
  ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(""));
}

/// Ids + bit-pattern diversity of a Result<Solution>, comparable with ==.
struct SolutionDigest {
  bool ok = false;
  int status_code = 0;
  std::vector<int64_t> ids;
  double diversity = 0.0;
  bool operator==(const SolutionDigest&) const = default;
};

SolutionDigest Digest(const Result<Solution>& r) {
  SolutionDigest d;
  d.ok = r.ok();
  if (!r.ok()) {
    d.status_code = static_cast<int>(r.status().code());
    return d;
  }
  d.ids = r->Ids();
  d.diversity = r->diversity;
  return d;
}

TEST(OfflineKernelEquivalenceTest, GreedyGmmSelectionOrder) {
  for (const MetricKind kind : kAllKinds) {
    const Dataset ds = RandomDataset(kind, 60, 7, 11);
    ExpectSameAcrossTargets([&] { return GreedyGmm(ds, 12); },
                            MetricKindName(kind));
    // Per-group universes with a warm start — the baselines' usage.
    const std::vector<size_t> rows = RowsOfGroup(ds, 0);
    const std::vector<size_t> warm = {rows[0], rows[1]};
    ExpectSameAcrossTargets(
        [&] { return GreedyGmm(ds, rows, 8, warm, /*start_index=*/2); },
        MetricKindName(kind));
  }
}

TEST(OfflineKernelEquivalenceTest, ThresholdClusterLabels) {
  for (const MetricKind kind : kAllKinds) {
    const Dataset ds = RandomDataset(kind, 40, 5, 22);
    const Metric metric(kind);
    PointBuffer points(ds.dim(), ds.size());
    for (size_t i = 0; i < ds.size(); ++i) points.Add(ds.At(i));
    const DistanceBounds bounds = ComputeDistanceBoundsExact(ds);
    for (const double threshold :
         {bounds.min * 1.5, (bounds.min + bounds.max) / 2,
          bounds.max * 0.9}) {
      ExpectSameAcrossTargets(
          [&] { return ThresholdClusters(points, metric, threshold); },
          MetricKindName(kind));
    }
  }
}

TEST(OfflineKernelEquivalenceTest, PairwiseDiversityPrimitives) {
  for (const MetricKind kind : kAllKinds) {
    const Dataset ds = RandomDataset(kind, 30, 6, 33);
    const Metric metric(kind);
    PointBuffer points(ds.dim(), ds.size());
    std::vector<size_t> indices;
    for (size_t i = 0; i < ds.size(); ++i) {
      points.Add(ds.At(i));
      if (i % 2 == 0) indices.push_back(i);
    }
    ExpectSameAcrossTargets([&] { return MinPairwiseDistance(points, metric); },
                            MetricKindName(kind));
    ExpectSameAcrossTargets(
        [&] { return MinPairwiseDistance(ds, indices); },
        MetricKindName(kind));
    ExpectSameAcrossTargets(
        [&] { return SumPairwiseDistance(ds, indices); },
        MetricKindName(kind));
  }
}

TEST(OfflineKernelEquivalenceTest, DistanceBounds) {
  struct BoundsDigest {
    double min = 0.0;
    double max = 0.0;
    bool operator==(const BoundsDigest&) const = default;
  };
  for (const MetricKind kind : kAllKinds) {
    // Include duplicate rows so the zero-distance exclusion is exercised
    // through the kernel routing too.
    Dataset ds = RandomDataset(kind, 50, 6, 66);
    ds.Add(std::vector<double>(ds.Point(3).begin(), ds.Point(3).end()), 0);
    ds.Add(std::vector<double>(ds.Point(9).begin(), ds.Point(9).end()), 1);

    // The kernel-routed scan must reproduce the scalar double loop bit for
    // bit — the pre-routing definition of these bounds.
    const Metric metric = ds.metric();
    BoundsDigest scalar{std::numeric_limits<double>::infinity(), 0.0};
    for (size_t i = 0; i < ds.size(); ++i) {
      for (size_t j = i + 1; j < ds.size(); ++j) {
        const double d = metric(ds.Point(i), ds.Point(j));
        if (d > 0.0 && d < scalar.min) scalar.min = d;
        if (d > scalar.max) scalar.max = d;
      }
    }
    const DistanceBounds exact = ComputeDistanceBoundsExact(ds);
    EXPECT_EQ(scalar.min, exact.min) << MetricKindName(kind);
    EXPECT_EQ(scalar.max, exact.max) << MetricKindName(kind);

    ExpectSameAcrossTargets(
        [&] {
          const DistanceBounds b = ComputeDistanceBoundsExact(ds);
          return BoundsDigest{b.min, b.max};
        },
        MetricKindName(kind));
    // The sampled path only engages past its small-n cutoff (2048).
    const Dataset big = RandomDataset(kind, 2100, 4, 77);
    ExpectSameAcrossTargets(
        [&] {
          const DistanceBounds b =
              EstimateDistanceBounds(big, /*sample_size=*/64, /*seed=*/7);
          return BoundsDigest{b.min, b.max};
        },
        MetricKindName(kind));
  }
}

TEST(OfflineKernelEquivalenceTest, OfflineBaselines) {
  FairnessConstraint constraint;
  constraint.quotas = {3, 2};
  for (const MetricKind kind : kAllKinds) {
    const Dataset ds = RandomDataset(kind, 48, 5, 44);
    ExpectSameAcrossTargets([&] { return MaxSumGreedy(ds, 8); },
                            MetricKindName(kind));
    ExpectSameAcrossTargets(
        [&] { return Digest(FairSwap(ds, constraint, /*start_index=*/1)); },
        MetricKindName(kind));
    ExpectSameAcrossTargets(
        [&] { return Digest(FairFlow(ds, constraint)); },
        MetricKindName(kind));
    ExpectSameAcrossTargets(
        [&] { return Digest(FairGmm(ds, constraint)); },
        MetricKindName(kind));
  }
}

TEST(OfflineKernelEquivalenceTest, ExactEnumerators) {
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  struct ExactDigest {
    std::vector<size_t> indices;
    double diversity = 0.0;
    bool operator==(const ExactDigest&) const = default;
  };
  for (const MetricKind kind : kAllKinds) {
    // Tiny instance: the enumerators are O(C(n,k)) with pruning, and the
    // pruning decisions themselves are part of the equivalence contract
    // (a different prune order could pick a different tie).
    const Dataset ds = RandomDataset(kind, 14, 4, 55);
    ExpectSameAcrossTargets(
        [&] {
          const ExactSolution s = ExactDiversityMaximization(ds, 4);
          return ExactDigest{s.indices, s.diversity};
        },
        MetricKindName(kind));
    ExpectSameAcrossTargets(
        [&] {
          const ExactSolution s =
              ExactFairDiversityMaximization(ds, constraint);
          return ExactDigest{s.indices, s.diversity};
        },
        MetricKindName(kind));
  }
}

}  // namespace
}  // namespace fdm
