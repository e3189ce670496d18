// The one quantile rule every latency figure uses (obs::bucket_quantile):
// nearest rank over a histogram's cumulative buckets, as STATS reads them
// from the metrics snapshot and `lamactl top` from a METRICS push.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "support/histogram.hpp"

namespace lama::obs {
namespace {

// Cumulative (le, count) buckets of a LatencyHistogram, as the METRICS
// exposition renders them: nonzero buckets only, then +Inf.
std::vector<std::pair<double, double>> cumulative_buckets(
    const LatencyHistogram& h) {
  const LatencyHistogram::Snapshot s = h.snapshot();
  std::vector<std::pair<double, double>> out;
  double seen = 0.0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (s.buckets[i] == 0) continue;
    seen += static_cast<double>(s.buckets[i]);
    out.emplace_back(
        static_cast<double>(LatencyHistogram::Snapshot::bucket_bound_ns(i)),
        seen);
  }
  out.emplace_back(std::numeric_limits<double>::infinity(),
                   static_cast<double>(s.count));
  return out;
}

TEST(BucketQuantile, IsMonotonicAndBoundingOverHistogramBuckets) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) h.record_ns(ns);
  const auto buckets = cumulative_buckets(h);
  const double p50 = bucket_quantile(buckets, 0.5);
  const double p90 = bucket_quantile(buckets, 0.9);
  const double p100 = bucket_quantile(buckets, 1.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p100);
  // The p50 bucket upper bound must cover the true median (500)...
  EXPECT_GE(p50, 500.0);
  // ...but stay within one power-of-two of it.
  EXPECT_LE(p50, 1023.0);
  EXPECT_EQ(p100, 1023.0);  // never the +Inf bound
}

TEST(BucketQuantile, NearestRankAndEmptyInputs) {
  // The p50 of three samples is the second one.
  LatencyHistogram three;
  three.record_ns(1);
  three.record_ns(100);
  three.record_ns(10000);
  EXPECT_EQ(bucket_quantile(cumulative_buckets(three), 0.5), 127.0);
  EXPECT_EQ(bucket_quantile(cumulative_buckets(three), 0.99), 16383.0);
  EXPECT_EQ(bucket_quantile(cumulative_buckets(LatencyHistogram{}), 0.5),
            0.0);
  EXPECT_EQ(bucket_quantile({}, 0.99), 0.0);
}

}  // namespace
}  // namespace lama::obs
