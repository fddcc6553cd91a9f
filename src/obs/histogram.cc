#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fdm::obs {

uint64_t HistogramSnapshot::BucketLowerBound(size_t index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  const uint32_t e = static_cast<uint32_t>(index / kSubBuckets) + kSubBits - 1;
  const uint64_t sub = index % kSubBuckets;
  return (static_cast<uint64_t>(kSubBuckets) + sub) << (e - kSubBits);
}

uint64_t HistogramSnapshot::BucketUpperBound(size_t index) {
  if (index + 1 >= kBucketCount) return std::numeric_limits<uint64_t>::max();
  return BucketLowerBound(index + 1) - 1;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t i = 0; i < kBucketCount; ++i) counts[i] += other.counts[i];
  count += other.count;
  sum += other.sum;
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th quantile, 1-based: the smallest bucket whose
  // cumulative count reaches it. ceil() keeps p0 -> first value and
  // p100 -> last value exact.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  return Max();
}

uint64_t HistogramSnapshot::Max() const {
  for (size_t i = kBucketCount; i-- > 0;) {
    if (counts[i] != 0) return BucketUpperBound(i);
  }
  return 0;
}

}  // namespace fdm::obs
