// Core correctness of the shared log-bucketed histogram: exact bucket
// boundaries, the ≤ 1/8 relative bucket width the percentile error bound
// rests on, quantile semantics and deterministic merges.

#include "obs/histogram.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace fdm::obs {
namespace {

using H = HistogramSnapshot;

TEST(ObsHistogramTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < H::kSubBuckets; ++v) {
    EXPECT_EQ(static_cast<size_t>(v), H::BucketIndex(v));
    EXPECT_EQ(v, H::BucketLowerBound(v));
    EXPECT_EQ(v, H::BucketUpperBound(v));
  }
}

TEST(ObsHistogramTest, OctaveBoundariesAreExact) {
  // First value of the first split octave.
  EXPECT_EQ(8u, H::BucketIndex(8));
  EXPECT_EQ(8u, H::BucketLowerBound(8));
  // Last value of that octave still has its own bucket (width 1).
  EXPECT_EQ(15u, H::BucketIndex(15));
  EXPECT_EQ(15u, H::BucketLowerBound(15));
  // The next octave doubles the bucket width: 16 and 17 share a bucket.
  EXPECT_EQ(16u, H::BucketIndex(16));
  EXPECT_EQ(H::BucketIndex(16), H::BucketIndex(17));
  EXPECT_NE(H::BucketIndex(17), H::BucketIndex(18));
  EXPECT_EQ(16u, H::BucketLowerBound(16));
  EXPECT_EQ(17u, H::BucketUpperBound(16));
}

TEST(ObsHistogramTest, BoundsRoundTripThroughBucketIndex) {
  for (size_t i = 0; i < H::kBucketCount; ++i) {
    EXPECT_EQ(i, H::BucketIndex(H::BucketLowerBound(i))) << "index " << i;
    EXPECT_EQ(i, H::BucketIndex(H::BucketUpperBound(i))) << "index " << i;
    if (i > 0) {
      EXPECT_GT(H::BucketLowerBound(i), H::BucketLowerBound(i - 1));
      EXPECT_EQ(H::BucketLowerBound(i) - 1, H::BucketUpperBound(i - 1));
    }
  }
  EXPECT_EQ(std::numeric_limits<uint64_t>::max(),
            H::BucketUpperBound(H::kBucketCount - 1));
  EXPECT_EQ(H::kBucketCount - 1,
            H::BucketIndex(std::numeric_limits<uint64_t>::max()));
}

TEST(ObsHistogramTest, RelativeBucketWidthIsBounded) {
  // The documented error bound: for any recorded value, the bucket's upper
  // bound exceeds the value by at most 12.5% (exact below 8). Sampled over
  // many magnitudes.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10000; ++trial) {
    const uint64_t v = rng() >> (rng() % 56);
    const size_t index = H::BucketIndex(v);
    const uint64_t lower = H::BucketLowerBound(index);
    ASSERT_LE(lower, v);
    if (index + 1 < H::kBucketCount) {
      const uint64_t upper = H::BucketUpperBound(index);
      ASSERT_GE(upper, v);
      // width <= lower / 8 for split octaves.
      if (v >= H::kSubBuckets) {
        EXPECT_LE(upper - lower + 1, lower / H::kSubBuckets + 1)
            << "v=" << v << " index=" << index;
      }
    }
  }
}

TEST(ObsHistogramTest, PercentileSemantics) {
  H h;
  EXPECT_EQ(0u, h.Percentile(0.5));  // empty -> 0
  EXPECT_EQ(0u, h.Max());
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(1000u, h.count);
  EXPECT_EQ(1000u * 1001u / 2, h.sum);
  // Quantiles are bucket upper bounds: conservative, never below the true
  // quantile, and within the 12.5% bound above it.
  const uint64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 563u);
  const uint64_t p99 = h.Percentile(0.99);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 1151u);
  // p0 resolves to the first sample's bucket; p100 to the last's.
  EXPECT_EQ(1u, h.Percentile(0.0));
  EXPECT_EQ(h.Max(), h.Percentile(1.0));
  EXPECT_DOUBLE_EQ(500.5, h.Mean());
}

TEST(ObsHistogramTest, PercentileExactBelowEight) {
  H h;
  for (int i = 0; i < 10; ++i) h.Record(3);
  h.Record(5);
  EXPECT_EQ(3u, h.Percentile(0.5));
  EXPECT_EQ(5u, h.Percentile(1.0));
  EXPECT_EQ(5u, h.Max());
}

}  // namespace
}  // namespace fdm::obs
