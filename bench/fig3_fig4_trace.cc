// Reproduces Figs. 3 and 4: step-by-step illustrations of the two
// post-processing schemes, on a small concrete instance, using the same
// library pieces the algorithms use.
//
// Fig. 3 (SFDM1): one group-blind candidate + two group-specific
// candidates per guess; the blind candidate is balanced by inserting
// donors of the under-filled group (farthest first) and deleting
// over-filled elements nearest to the under-filled side.
//
// Fig. 4 (SFDM2): the candidates' union is threshold-clustered at
// µ/(m+1); a partial solution extracted from the blind candidate is
// augmented to a maximum-cardinality common independent set of the
// fairness and cluster matroids.

#include <cstdio>
#include <set>

#include "bench_common.h"
#include "core/clustering.h"
#include "core/diversity.h"
#include "core/matroid.h"
#include "core/matroid_intersection.h"
#include "core/streaming_candidate.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace fdm::bench {
namespace {

void PrintSet(const char* label, const PointBuffer& points) {
  std::printf("  %-18s {", label);
  for (size_t i = 0; i < points.size(); ++i) {
    std::printf("%s%lld(g%d)", i ? ", " : "",
                static_cast<long long>(points.IdAt(i)), points.GroupAt(i));
  }
  std::printf("}\n");
}

int Main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  Banner("Figs. 3 & 4: post-processing walkthrough (toy instance)", options);

  // A toy 2-group stream with a skew: group 1 is rare.
  Rng rng(options.seed + 3);
  Dataset ds("toy", 2, 2, MetricKind::kEuclidean);
  for (int i = 0; i < 60; ++i) {
    const double p[2] = {rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
    ds.Add(p, rng.NextDouble() < 0.8 ? 0 : 1);
  }
  const Metric metric = ds.metric();
  const double mu = 2.2;
  const int k1 = 3;
  const int k2 = 3;
  const int k = k1 + k2;

  std::printf("--- Fig. 3: SFDM1 stream phase at guess µ = %.2f ---\n", mu);
  StreamingCandidate blind(mu, static_cast<size_t>(k), 2);
  StreamingCandidate group_candidates[2] = {
      StreamingCandidate(mu, static_cast<size_t>(k1), 2),
      StreamingCandidate(mu, static_cast<size_t>(k2), 2)};
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint x = ds.At(i);
    blind.TryAdd(x, metric);
    group_candidates[x.group].TryAdd(x, metric);
  }
  PrintSet("S_mu (blind):", blind.points());
  PrintSet("S_mu,1:", group_candidates[0].points());
  PrintSet("S_mu,2:", group_candidates[1].points());
  const std::vector<int> counts = GroupCounts(blind.points(), 2);
  std::printf("  blind group counts: %d/%d (want %d/%d)\n", counts[0],
              counts[1], k1, k2);

  std::printf("\n--- Fig. 4: SFDM2 post-processing at the same guess ---\n");
  // S_all = dedup union of all candidates.
  PointBuffer all(2, static_cast<size_t>(k * 3));
  std::set<int64_t> seen;
  auto add_from = [&](const StreamingCandidate& c) {
    for (size_t i = 0; i < c.points().size(); ++i) {
      if (seen.insert(c.points().IdAt(i)).second) {
        all.AddFrom(c.points(), i);
      }
    }
  };
  add_from(blind);
  add_from(group_candidates[0]);
  add_from(group_candidates[1]);
  PrintSet("S_all:", all);

  const int m = 2;
  const double threshold = mu / (m + 1);
  const std::vector<int> cluster_of = ThresholdClusters(all, metric, threshold);
  int num_clusters = 0;
  for (const int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  std::printf("  clustering at µ/(m+1) = %.3f -> %d clusters:\n", threshold,
              num_clusters);
  for (int c = 0; c < num_clusters; ++c) {
    std::printf("    C%-2d {", c);
    bool first = true;
    for (size_t i = 0; i < all.size(); ++i) {
      if (cluster_of[i] == c) {
        std::printf("%s%lld", first ? "" : ", ",
                    static_cast<long long>(all.IdAt(i)));
        first = false;
      }
    }
    std::printf("}\n");
  }

  // Matroids + initial partial solution from the blind candidate.
  std::vector<int> group_labels(all.size());
  for (size_t i = 0; i < all.size(); ++i) group_labels[i] = all.GroupAt(i);
  const PartitionMatroid m1(group_labels, {k1, k2});
  const PartitionMatroid m2(
      cluster_of, std::vector<int>(static_cast<size_t>(num_clusters), 1));
  std::vector<int> initial;
  int taken[2] = {0, 0};
  for (size_t i = 0; i < all.size(); ++i) {
    if (!blind.points().ContainsId(all.IdAt(i))) continue;
    const int g = all.GroupAt(i);
    const int quota = g == 0 ? k1 : k2;
    if (taken[g] < quota) {
      initial.push_back(static_cast<int>(i));
      ++taken[g];
    }
  }
  std::printf("  initial S'_mu (from blind, capped at quotas): {");
  for (size_t i = 0; i < initial.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "",
                static_cast<long long>(all.IdAt(
                    static_cast<size_t>(initial[i]))));
  }
  std::printf("}\n");

  std::vector<double> x_coords(all.dim());
  std::vector<double> member_coords(all.dim());
  auto distance_fn = [&](int x, std::span<const int> members) {
    double best = std::numeric_limits<double>::infinity();
    all.GatherCoords(static_cast<size_t>(x), x_coords);
    for (const int mm : members) {
      best = std::min(
          best, metric(x_coords,
                       all.GatherCoords(static_cast<size_t>(mm), member_coords)));
    }
    return best;
  };
  const std::vector<int> augmented =
      MaxCardinalityMatroidIntersection(m1, m2, initial, distance_fn);
  PointBuffer final_points(2, augmented.size());
  for (const int e : augmented) {
    final_points.AddFrom(all, static_cast<size_t>(e));
  }
  PrintSet("augmented S'_mu:", final_points);
  const std::vector<int> final_counts = GroupCounts(final_points, 2);
  std::printf("  final: |S| = %zu, counts %d/%d, div = %.4f (µ/(m+1) bound "
              "= %.4f)\n",
              final_points.size(), final_counts[0], final_counts[1],
              MinPairwiseDistance(final_points, metric), threshold);

  const bool shape =
      static_cast<int>(final_points.size()) == k &&
      final_counts[0] == k1 && final_counts[1] == k2 &&
      MinPairwiseDistance(final_points, metric) >= threshold - 1e-12;
  std::printf("\nshape check (fair, full, div >= µ/(m+1)): %s\n",
              shape ? "OK" : "VIOLATED");
  return shape ? 0 : 1;
}

}  // namespace
}  // namespace fdm::bench

int main(int argc, char** argv) { return fdm::bench::Main(argc, argv); }
