// Sample arithmetic for the reported metrics. A percentile is reported only
// when at least kMinBeyond samples lie beyond it, so a p90 needs 100
// samples and a p50 needs 20; below that the metric has no value.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank index (0-based) of quantile q in n sorted samples.
std::size_t rank_index(std::size_t n, double q);

// Samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

// The nearest-rank q-quantile, or nullopt when fewer than kMinBeyond
// samples lie beyond it. Sorts `samples` in place.
std::optional<double> percentile(std::vector<double>& samples, double q);

// Median of any non-empty sample set (mean of the middle two when even);
// no sample-count rule, for medians of a few cold starts.
double median(std::vector<double> samples);

}  // namespace perfbench
