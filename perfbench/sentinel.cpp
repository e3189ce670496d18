#include "sentinel.hpp"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

SentinelTimes run_sentinel() {
  constexpr std::size_t kWords = (4u << 20) / sizeof(std::uint64_t);
  // One cycle through the whole buffer (Sattolo's shuffle), built once in
  // place: each load depends on the previous one, so the walk measures
  // latency, not bandwidth.
  static const std::vector<std::uint64_t> next = [] {
    std::vector<std::uint64_t> v(kWords);
    for (std::size_t i = 0; i < kWords; ++i) v[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kWords - 1; i > 0; --i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();

  SentinelTimes t;
  auto start = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t acc = 1;
  for (std::uint32_t i = 0; i < 2'000'000; ++i) acc = acc * 6364136223846793005ULL + i;
  sink = acc;
  t.alu_us = elapsed_us(start);

  start = std::chrono::steady_clock::now();
  std::uint64_t at = 0;
  for (std::uint32_t i = 0; i < 100'000; ++i) at = next[at];
  sink = at;
  t.mem_us = elapsed_us(start);
  (void)sink;
  return t;
}

HostCpu read_host_cpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long field[8] = {};
  stat >> cpu;
  for (unsigned long long& f : field) stat >> f;
  HostCpu h;
  if (!stat || cpu != "cpu") return h;
  for (const unsigned long long f : field) h.total += f;
  h.steal = field[7];
  return h;
}

double steal_percent(const HostCpu& from, const HostCpu& to) {
  return to.total > from.total
             ? 100.0 * static_cast<double>(to.steal - from.steal) /
                   static_cast<double>(to.total - from.total)
             : 0.0;
}

}  // namespace perfbench
