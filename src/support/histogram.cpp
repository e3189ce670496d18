#include "support/histogram.hpp"

#include <bit>

namespace lama {

void LatencyHistogram::record_ns(std::uint64_t ns) {
  std::size_t idx = std::bit_width(ns);  // 0 -> 0, [2^(i-1), 2^i) -> i
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum_ns = sum_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace lama
