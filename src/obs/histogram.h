#ifndef FDM_OBS_HISTOGRAM_H_
#define FDM_OBS_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace fdm::obs {

/// Plain (non-atomic) log-bucketed histogram with a fixed, deterministic
/// bucket layout — the one percentile implementation shared by the runtime
/// metrics registry (`obs/metrics.h`), the per-cache solve-latency stats,
/// the benches, and `RunResult`. A p99 printed by `micro_replica` and one
/// scraped from a serving METRICS reply mean exactly the same thing.
///
/// Layout (HDR-style log-linear): values are non-negative integers
/// (nanoseconds, bytes, records). Values below 8 get one exact bucket
/// each; from 8 up, every power-of-two octave splits into 8 sub-buckets
/// (`kSubBits = 3`), so a recorded value lands in a bucket whose width is
/// at most 1/8 of its magnitude — percentiles carry ≤ 12.5% relative
/// error, constant across twelve orders of magnitude, in 496 buckets.
/// The layout is a pure function of the value with no tuning parameters,
/// which is what makes merges deterministic: histograms recorded by
/// different threads (the registry's per-thread shards), processes, or PR
/// generations combine by element-wise addition, in any order, to the
/// same result.
///
/// This type is real in *both* metric configurations — `FDM_NO_METRICS`
/// stubs out the sharded registry, not the math — so per-session solve
/// percentiles and bench reports keep working with the kill switch on.
struct HistogramSnapshot {
  /// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave.
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;
  /// Indices 0..7 are exact; octaves e = 3..63 contribute 8 buckets each.
  static constexpr size_t kBucketCount =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;
  static_assert(kBucketCount == 496);

  std::array<uint64_t, kBucketCount> counts{};
  uint64_t count = 0;
  uint64_t sum = 0;

  /// The bucket `v` lands in. Exact for `v < 8`; otherwise
  /// `e = bit_width(v) - 1`, `sub = the 3 bits after the leading one`,
  /// index `(e - 2) * 8 + sub`. Branch-light and allocation-free — safe
  /// for hot paths.
  static size_t BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    const uint32_t e = static_cast<uint32_t>(std::bit_width(v)) - 1;
    const uint64_t sub = (v >> (e - kSubBits)) & (kSubBuckets - 1);
    return static_cast<size_t>((e - kSubBits + 1) * kSubBuckets + sub);
  }

  /// Smallest value mapping to bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  /// Largest value mapping to bucket `index` (inclusive).
  static uint64_t BucketUpperBound(size_t index);

  void Record(uint64_t v) {
    ++counts[BucketIndex(v)];
    ++count;
    sum += v;
  }

  /// Element-wise addition; deterministic in any merge order.
  void Merge(const HistogramSnapshot& other);

  /// Upper bound of the bucket holding the q-th quantile (q in [0, 1]);
  /// 0 when empty. Reported values are thus conservative (never below the
  /// true quantile) and exact below 8.
  uint64_t Percentile(double q) const;

  /// Upper bound of the highest non-empty bucket; 0 when empty.
  uint64_t Max() const;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

}  // namespace fdm::obs

#endif  // FDM_OBS_HISTOGRAM_H_
