#include "support/histogram.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace lama {
namespace {

TEST(LatencyHistogram, EmptyIsZero) {
  const LatencyHistogram::Snapshot s = LatencyHistogram{}.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum_ns, 0u);
  for (const std::uint64_t b : s.buckets) EXPECT_EQ(b, 0u);
}

TEST(LatencyHistogram, CountAndSum) {
  LatencyHistogram h;
  h.record_ns(100);
  h.record_ns(200);
  h.record_ns(300);
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum_ns, 600u);
}

TEST(LatencyHistogram, BucketBoundaries) {
  LatencyHistogram h;
  h.record_ns(0);  // bucket 0
  h.record_ns(1);  // bucket 1: [1, 2)
  h.record_ns(2);  // bucket 2: [2, 4)
  h.record_ns(3);  // bucket 2
  h.record_ns(4);  // bucket 3: [4, 8)
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 1u);
}

TEST(LatencyHistogram, HugeSampleSaturatesLastBucket) {
  LatencyHistogram h;
  h.record_ns(~0ULL);
  EXPECT_EQ(h.snapshot().buckets[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(LatencyHistogram, SnapshotIsInternallyConsistent) {
  LatencyHistogram h;
  h.record_ns(0);
  h.record_ns(5);
  h.record_ns(300);
  h.record_ns(~0ULL);
  const LatencyHistogram::Snapshot s = h.snapshot();
  std::uint64_t total = 0;
  for (const std::uint64_t b : s.buckets) total += b;
  EXPECT_EQ(s.count, total);  // count recomputed from buckets
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(LatencyHistogram, SnapshotOfEmptyHistogram) {
  const LatencyHistogram::Snapshot s = LatencyHistogram{}.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum_ns, 0u);
}

TEST(LatencyHistogram, BucketBoundIsInclusiveUpperBound) {
  // Bucket i covers [2^(i-1), 2^i), so its inclusive bound is 2^i - 1. A
  // sample equal to the bound must land in that bucket, bound+1 in the next.
  EXPECT_EQ(LatencyHistogram::Snapshot::bucket_bound_ns(0), 0u);
  EXPECT_EQ(LatencyHistogram::Snapshot::bucket_bound_ns(1), 1u);
  EXPECT_EQ(LatencyHistogram::Snapshot::bucket_bound_ns(3), 7u);
  LatencyHistogram h;
  h.record_ns(7);
  h.record_ns(8);
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[4], 1u);
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.record_ns(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.sum_ns, static_cast<std::uint64_t>(kThreads) * kPerThread *
                          (kPerThread + 1) / 2);
}

}  // namespace
}  // namespace lama
