#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<std::size_t>(rank, 1) - 1;
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

std::optional<double> percentile(std::vector<double>& samples, double q) {
  if (samples.empty() || samples_beyond(samples.size(), q) < kMinBeyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  return samples[rank_index(samples.size(), q)];
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

}  // namespace perfbench
