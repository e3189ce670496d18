// A lock-free latency histogram with power-of-two nanosecond buckets.
// record() is wait-free (relaxed atomics), so the mapping service can stamp
// every request stage without serializing its workers; readers get a
// consistent-enough snapshot for operational metrics (exact linearization of
// concurrent updates is deliberately not promised).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace lama {

class LatencyHistogram {
 public:
  // Bucket i counts samples in [2^(i-1), 2^i) ns; bucket 0 counts 0 ns.
  // 2^40 ns ≈ 18 minutes — anything slower saturates into the last bucket.
  static constexpr std::size_t kNumBuckets = 41;

  // One read of the whole histogram. count is recomputed from the bucket
  // array so `count == Σ buckets` holds by construction even while
  // record_ns() races the read.
  struct Snapshot {
    std::array<std::uint64_t, kNumBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;

    // Inclusive upper bound (ns) of bucket i: 0, 1, 3, 7, ... 2^i - 1.
    [[nodiscard]] static std::uint64_t bucket_bound_ns(std::size_t i) {
      return i == 0 ? 0 : (1ULL << i) - 1;
    }
  };

  void record_ns(std::uint64_t ns);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace lama
