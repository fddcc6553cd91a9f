// Equivalence of the PointBuffer one-to-many kernels with the scalar
// Metric on random data, for all three paper metrics (Euclidean,
// Manhattan, angular) and for *every dispatch target reachable on the
// build machine* (scalar always; AVX2/AVX-512 when the CPU has them — the
// same sweep `FDM_KERNEL` forces externally in CI). Every target must
// return bit-identical raw distances and make the same threshold
// decisions as a point-at-a-time scan — the streaming insert rule, and
// therefore every algorithm's output, depends on it.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_candidate.h"
#include "geo/metric.h"
#include "geo/point_buffer.h"
#include "geo/simd/kernel_dispatch.h"
#include "util/rng.h"

namespace fdm {
namespace {

constexpr MetricKind kAllKinds[] = {MetricKind::kEuclidean,
                                    MetricKind::kManhattan,
                                    MetricKind::kAngular};

/// Runs `fn` once per dispatch target reachable on this machine, with that
/// target forced active, and restores the process default afterwards.
template <typename Fn>
void ForEachKernelTarget(Fn&& fn) {
  for (const std::string_view target : simd::AvailableKernelTargets()) {
    ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(target));
    fn(target);
  }
  ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(""));
}

std::vector<double> RandomPoint(Rng& rng, size_t dim) {
  std::vector<double> coords(dim);
  for (double& c : coords) c = rng.NextDouble(-5.0, 5.0);
  return coords;
}

PointBuffer FillRandom(Rng& rng, size_t n, size_t dim) {
  PointBuffer buffer(dim, n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> coords = RandomPoint(rng, dim);
    buffer.Add(StreamPoint{static_cast<int64_t>(i), 0, coords});
  }
  return buffer;
}

/// Reference: point-at-a-time scan through the scalar kernel.
double ScalarMinRaw(const PointBuffer& buffer, std::span<const double> x,
                    const Metric& metric) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> row(buffer.dim());
  for (size_t i = 0; i < buffer.size(); ++i) {
    best = std::min(best, metric.RawDistance(
                              x.data(), buffer.GatherCoords(i, row).data(),
                              buffer.dim()));
  }
  return best;
}

TEST(PointBufferKernelsTest, MinRawDistanceMatchesScalarMetric) {
  ForEachKernelTarget([](std::string_view target) {
    Rng rng(123);
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      // Odd dimensions exercise every lane-broadcast path; sizes around
      // the block width (8) exercise full blocks and the padded tail.
      for (const size_t dim : {1u, 3u, 7u, 8u, 17u}) {
        for (const size_t n : {0u, 1u, 7u, 8u, 9u, 17u, 40u, 100u}) {
          const PointBuffer buffer = FillRandom(rng, n, dim);
          for (int q = 0; q < 20; ++q) {
            const std::vector<double> query = RandomPoint(rng, dim);
            const double expected = ScalarMinRaw(buffer, query, metric);
            const double actual = buffer.MinRawDistanceTo(query, metric);
            // Bit-identical, not approximately equal: every dispatch
            // target replicates the scalar arithmetic operation for
            // operation (per lane), and min is exact.
            EXPECT_EQ(expected, actual)
                << target << " " << MetricKindName(kind) << " dim=" << dim
                << " n=" << n;
            // The normalized form agrees too (infinity when empty).
            EXPECT_EQ(n == 0 ? std::numeric_limits<double>::infinity()
                             : metric.FinishDistance(expected),
                      buffer.MinDistanceTo(query, metric));
          }
        }
      }
    }
  });
}

TEST(PointBufferKernelsTest, AllAtLeastMatchesScalarDecision) {
  ForEachKernelTarget([](std::string_view target) {
    Rng rng(321);
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      for (const size_t dim : {1u, 3u, 6u, 17u}) {
        // 25 points: three full blocks plus a padded tail lane.
        const PointBuffer buffer = FillRandom(rng, 25, dim);
        for (int q = 0; q < 50; ++q) {
          const std::vector<double> query = RandomPoint(rng, dim);
          const double min_raw = ScalarMinRaw(buffer, query, metric);
          const double min_true = metric.FinishDistance(min_raw);
          // Thresholds straddling the true minimum, including the exact
          // value (the decision at equality must match the scalar rule —
          // early exits may shorten the scan but never flip a decision).
          for (const double threshold :
               {min_true * 0.5, min_true, min_true * 1.5}) {
            const bool expected =
                min_raw >= metric.PrepareThreshold(threshold);
            EXPECT_EQ(expected, buffer.AllAtLeast(query, metric, threshold))
                << target << " " << MetricKindName(kind)
                << " threshold=" << threshold;
          }
        }
      }
    }
  });
}

TEST(PointBufferKernelsTest, MinRawDistanceToManyMatchesSingleQueryScans) {
  ForEachKernelTarget([](std::string_view target) {
    Rng rng(777);
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      for (const size_t dim : {1u, 3u, 7u, 17u}) {
        for (const size_t n : {0u, 1u, 9u, 40u}) {
          const PointBuffer buffer = FillRandom(rng, n, dim);
          constexpr size_t kQ = 13;
          std::vector<std::vector<double>> queries;
          std::vector<const double*> q_ptrs;
          for (size_t q = 0; q < kQ; ++q) {
            queries.push_back(RandomPoint(rng, dim));
            q_ptrs.push_back(queries.back().data());
          }
          // Exact mode (-inf thresholds): bit-identical to per-query
          // full scans.
          std::vector<double> stops(
              kQ, -std::numeric_limits<double>::infinity());
          std::vector<double> out(kQ);
          buffer.MinRawDistanceToMany(
              std::span<const double* const>(q_ptrs.data(), kQ), metric,
              stops, std::span<double>(out.data(), kQ));
          for (size_t q = 0; q < kQ; ++q) {
            EXPECT_EQ(buffer.MinRawDistanceTo(queries[q], metric), out[q])
                << target << " " << MetricKindName(kind) << " dim=" << dim
                << " n=" << n << " q=" << q;
          }
          if (n == 0) continue;
          // Threshold mode: per-query decisions match AllAtLeast for
          // thresholds straddling each query's true minimum.
          for (const double factor : {0.5, 1.0, 1.5}) {
            std::vector<double> raw_stops(kQ);
            std::vector<double> trues(kQ);
            for (size_t q = 0; q < kQ; ++q) {
              trues[q] =
                  metric.FinishDistance(out[q]) * factor;
              raw_stops[q] = metric.PrepareThreshold(trues[q]);
            }
            std::vector<double> decided(kQ);
            buffer.MinRawDistanceToMany(
                std::span<const double* const>(q_ptrs.data(), kQ), metric,
                raw_stops, std::span<double>(decided.data(), kQ));
            for (size_t q = 0; q < kQ; ++q) {
              EXPECT_EQ(buffer.AllAtLeast(queries[q], metric, trues[q]),
                        decided[q] >= raw_stops[q])
                  << target << " " << MetricKindName(kind)
                  << " factor=" << factor << " q=" << q;
            }
          }
        }
      }
    }
  });
}

TEST(PointBufferKernelsTest, FuzzInterleavedMutationsKeepLayoutsConsistent) {
  // Fuzz-style interleaving of Add / AddFrom (of the buffer's own points) /
  // AddDeferPadding runs / RemoveSwap / Clear / copies with kernel scans,
  // mirrored into an oracle of point-major copies: the gathered ids,
  // coordinates and cached squared norms, and every scan, must match the
  // oracle after every mutation (replicate-last padding included), for all
  // three metrics and every reachable dispatch target. Clears are rare, so
  // buffers grow across several 8-point blocks — capped at a capacity of
  // 20 and then past it, and uncapped — and copies restart growth from
  // arrays exactly their size, so every growth step moves storage
  // mid-stream (an `AddFrom` of the buffer's own point included).
  struct OraclePoint {
    int64_t id;
    std::vector<double> coords;
  };
  ForEachKernelTarget([](std::string_view target) {
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      for (const size_t dim : {1u, 3u, 8u, 17u}) {
        for (const size_t capacity : {0u, 20u}) {
          Rng rng(1000 + dim + capacity);
          PointBuffer buffer(dim, capacity);
          std::vector<OraclePoint> oracle;
          std::vector<double> row(dim);
          int64_t next_id = 0;
          size_t largest = 0;
          for (int step = 0; step < 600; ++step) {
            const uint64_t op = rng.NextBounded(100);
            if (op < 45 || buffer.empty()) {
              const std::vector<double> coords = RandomPoint(rng, dim);
              buffer.Add(StreamPoint{next_id, 0, coords});
              oracle.push_back({next_id++, coords});
            } else if (op < 50) {
              const size_t from = rng.NextBounded(buffer.size());
              buffer.AddFrom(buffer, from);
              oracle.push_back(oracle[from]);
            } else if (op < 60) {
              const size_t run = 1 + rng.NextBounded(12);
              for (size_t r = 0; r < run; ++r) {
                const std::vector<double> coords = RandomPoint(rng, dim);
                buffer.AddDeferPadding(StreamPoint{next_id, 0, coords});
                oracle.push_back({next_id++, coords});
              }
              buffer.SealPadding();
            } else if (op < 93) {
              const size_t index = rng.NextBounded(buffer.size());
              buffer.RemoveSwap(index);
              oracle[index] = oracle.back();
              oracle.pop_back();
            } else if (op < 98) {
              buffer = PointBuffer(buffer);
            } else {
              buffer.Clear();
              oracle.clear();
            }
            largest = std::max(largest, buffer.size());
            ASSERT_EQ(oracle.size(), buffer.size()) << "step=" << step;
            for (size_t i = 0; i < buffer.size(); ++i) {
              ASSERT_EQ(oracle[i].id, buffer.IdAt(i)) << "step=" << step;
              const std::span<const double> gathered =
                  buffer.GatherCoords(i, row);
              ASSERT_TRUE(std::equal(gathered.begin(), gathered.end(),
                                     oracle[i].coords.begin()))
                  << "step=" << step << " i=" << i;
              for (size_t d = 0; d < dim; ++d) {
                ASSERT_EQ(oracle[i].coords[d], buffer.CoordAt(i, d));
              }
              // Norm cache tracks the compaction bit-exactly.
              ASSERT_EQ(internal::SquaredNorm(oracle[i].coords.data(), dim),
                        buffer.SquaredNormAt(i))
                  << target << " " << MetricKindName(kind) << " step=" << step;
            }
            if (step % 7 != 0) continue;  // scan periodically, mutate often
            const std::vector<double> query = RandomPoint(rng, dim);
            double want = std::numeric_limits<double>::infinity();
            for (const OraclePoint& p : oracle) {
              want = std::min(
                  want, metric.RawDistance(query.data(), p.coords.data(), dim));
            }
            ASSERT_EQ(want, buffer.MinRawDistanceTo(query, metric))
                << target << " " << MetricKindName(kind) << " dim=" << dim
                << " step=" << step << " n=" << buffer.size();
            const double* queries[] = {query.data()};
            const double stops[] = {-std::numeric_limits<double>::infinity()};
            double many[1];
            buffer.MinRawDistanceToMany(queries, metric, stops, many);
            ASSERT_EQ(want, many[0]) << target << " step=" << step;
            std::vector<double> all;
            buffer.RawDistancesToAll(query, metric, all);
            for (size_t i = 0; i < buffer.size(); ++i) {
              ASSERT_EQ(metric.RawDistance(query.data(),
                                           oracle[i].coords.data(), dim),
                        all[i])
                  << target << " step=" << step << " i=" << i;
            }
          }
          EXPECT_GE(largest, 3 * simd::kPointBlockLanes)
              << "the fuzz never crossed two block boundaries";
        }
      }
    }
  });
}

TEST(PointBufferKernelsTest, AdmissionDecisionsIdenticalAcrossTargets) {
  // The acceptance contract of the dispatch subsystem, at the candidate
  // level: replaying the same stream through StreamingCandidate under
  // every reachable target (early exits included, batched and per-element)
  // must keep exactly the same elements in exactly the same order.
  Rng stream_rng(9001);
  for (const MetricKind kind : kAllKinds) {
    const Metric metric(kind);
    const size_t dim = 5;
    const double mu = kind == MetricKind::kAngular ? 0.4 : 2.5;
    std::vector<std::vector<double>> stream;
    for (int i = 0; i < 600; ++i) {
      stream.push_back(RandomPoint(stream_rng, dim));
    }
    std::vector<std::vector<int64_t>> kept_per_target;
    ForEachKernelTarget([&](std::string_view) {
      StreamingCandidate element_wise(mu, 25, dim);
      StreamingCandidate batched(mu, 25, dim);
      for (size_t i = 0; i < stream.size(); ++i) {
        element_wise.TryAdd(
            StreamPoint{static_cast<int64_t>(i), 0, stream[i]}, metric);
      }
      // Batched replay in uneven chunks (straddles the worklist pruning).
      std::vector<StreamPoint> batch;
      size_t i = 0;
      for (const size_t chunk : {1u, 7u, 64u, 128u, 400u}) {
        batch.clear();
        for (size_t t = 0; t < chunk && i < stream.size(); ++t, ++i) {
          batch.push_back(
              StreamPoint{static_cast<int64_t>(i), 0, stream[i]});
        }
        batched.TryAddBatch(batch, metric);
      }
      ASSERT_EQ(element_wise.points().size(), batched.points().size())
          << MetricKindName(kind);
      std::vector<int64_t> kept;
      for (size_t p = 0; p < element_wise.points().size(); ++p) {
        ASSERT_EQ(element_wise.points().IdAt(p), batched.points().IdAt(p))
            << MetricKindName(kind);
        kept.push_back(element_wise.points().IdAt(p));
      }
      kept_per_target.push_back(std::move(kept));
    });
    for (size_t t = 1; t < kept_per_target.size(); ++t) {
      EXPECT_EQ(kept_per_target[0], kept_per_target[t])
          << MetricKindName(kind) << " target index " << t;
    }
  }
}

TEST(PointBufferKernelsTest, RawDistancesToAllMatchesScalarMetricLoop) {
  // The offline one-to-many "dists" entry points (the Solve-path routing
  // added for the cold-SOLVE work): every target must fill the first n
  // slots with exactly metric.RawDistance(q, point_i), padded tail slots
  // notwithstanding.
  ForEachKernelTarget([](std::string_view target) {
    Rng rng(2024);
    std::vector<double> out;
    std::vector<double> row(17);
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      for (const size_t dim : {1u, 3u, 7u, 8u, 17u}) {
        for (const size_t n : {0u, 1u, 7u, 8u, 9u, 25u, 64u}) {
          const PointBuffer buffer = FillRandom(rng, n, dim);
          for (int q = 0; q < 10; ++q) {
            const std::vector<double> query = RandomPoint(rng, dim);
            buffer.RawDistancesToAll(query, metric, out);
            ASSERT_GE(out.size(), n);
            for (size_t i = 0; i < n; ++i) {
              EXPECT_EQ(metric.RawDistance(query.data(),
                                           buffer.GatherCoords(i, row).data(),
                                           dim),
                        out[i])
                  << target << " " << MetricKindName(kind) << " dim=" << dim
                  << " n=" << n << " i=" << i;
            }
          }
        }
      }
    }
  });
}

TEST(PointBufferKernelsTest, DeferredPaddingEquivalentToPlainAddAfterSeal) {
  // AddDeferPadding + SealPadding (the fused batch-insert path) must leave
  // the buffer indistinguishable from a plain Add sequence: same scan
  // results under every target, same norms, same ids — including when the
  // deferred run ends mid-block, where the padding lanes matter most.
  ForEachKernelTarget([](std::string_view target) {
    Rng rng(4242);
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      const size_t dim = 7;
      for (const size_t pre : {0u, 3u, 8u, 13u}) {
        for (const size_t batch : {1u, 2u, 5u, 8u, 11u}) {
          PointBuffer plain(dim, pre + batch);
          PointBuffer deferred(dim, pre + batch);
          int64_t id = 0;
          for (size_t i = 0; i < pre; ++i, ++id) {
            const std::vector<double> coords = RandomPoint(rng, dim);
            plain.Add(StreamPoint{id, 0, coords});
            deferred.Add(StreamPoint{id, 0, coords});
          }
          for (size_t i = 0; i < batch; ++i, ++id) {
            const std::vector<double> coords = RandomPoint(rng, dim);
            plain.Add(StreamPoint{id, 0, coords});
            deferred.AddDeferPadding(StreamPoint{id, 0, coords});
          }
          deferred.SealPadding();
          ASSERT_EQ(plain.size(), deferred.size());
          for (size_t i = 0; i < plain.size(); ++i) {
            ASSERT_EQ(plain.IdAt(i), deferred.IdAt(i));
            ASSERT_EQ(plain.SquaredNormAt(i), deferred.SquaredNormAt(i));
          }
          for (int q = 0; q < 10; ++q) {
            const std::vector<double> query = RandomPoint(rng, dim);
            EXPECT_EQ(plain.MinRawDistanceTo(query, metric),
                      deferred.MinRawDistanceTo(query, metric))
                << target << " " << MetricKindName(kind) << " pre=" << pre
                << " batch=" << batch;
          }
        }
      }
    }
  });
}

TEST(PointBufferKernelsTest, AngularNormCacheSurvivesRemoveSwap) {
  Rng rng(55);
  const Metric metric(MetricKind::kAngular);
  const size_t dim = 5;
  PointBuffer buffer = FillRandom(rng, 20, dim);
  // Interleave removals and insertions; the cached norms must track the
  // swap-with-last compaction exactly.
  buffer.RemoveSwap(3);
  buffer.RemoveSwap(0);
  buffer.RemoveSwap(buffer.size() - 1);
  const std::vector<double> extra = RandomPoint(rng, dim);
  buffer.Add(StreamPoint{99, 0, extra});
  std::vector<double> row(dim);
  for (size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(internal::SquaredNorm(buffer.GatherCoords(i, row).data(), dim),
              buffer.SquaredNormAt(i));
  }
  for (int q = 0; q < 20; ++q) {
    const std::vector<double> query = RandomPoint(rng, dim);
    EXPECT_EQ(ScalarMinRaw(buffer, query, metric),
              buffer.MinRawDistanceTo(query, metric));
  }
}

TEST(PointBufferKernelsTest, ZeroVectorAngularConvention) {
  const Metric metric(MetricKind::kAngular);
  PointBuffer buffer(3, 2);
  const std::vector<double> zero(3, 0.0);
  const std::vector<double> unit = {1.0, 0.0, 0.0};
  buffer.Add(StreamPoint{0, 0, zero});
  buffer.Add(StreamPoint{1, 0, unit});
  // A zero vector is orthogonal-by-convention to everything (pi/2), for
  // both the stored-point and the query side.
  EXPECT_EQ(std::acos(0.0), buffer.MinRawDistanceTo(zero, metric));
  EXPECT_EQ(0.0, buffer.MinRawDistanceTo(unit, metric));
}

}  // namespace
}  // namespace fdm
