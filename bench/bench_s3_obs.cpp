// S3 — the cost of tracing on the hot path. Every request records its
// stage latency histograms whether or not a tracer exists, so all three
// modes below pay for those; they differ only in trace assembly. With
// 1/64 head-based sampling only every 64th request pushes its spans to the
// rings and assembles a trace. This benchmark prices that claim directly:
// the identical warm-cache request stream runs against three service
// configurations —
//   off      - no flight recorder (tracer never constructed)
//   sampled  - flight recorder on, trace_sample=64 (the serving default)
//   always   - trace_sample=1 (every request assembles and is retained)
// and writes BENCH_s3_obs.json (to argv[1], default ./BENCH_s3_obs.json)
// with the minimum wall time of each mode over the repeats and the
// fractional overheads against `off`. The acceptance bar is
// overhead_sampled <= threshold (argv[2], default 0.05): default-rate
// tracing costs at most 5% on the warm-cache path. CI's shared runners
// pass a looser 0.10 to absorb scheduling noise. All modes run inline
// (workers=0), so the numbers measure instrumentation, not pool
// scheduling.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "svc/service.hpp"

namespace {

using namespace lama;

constexpr std::size_t kRepeats = 15;
constexpr std::size_t kRoundsPerRepeat = 150;
constexpr std::uint32_t kSampleEvery = 64;
constexpr const char* kDeepNode = "socket:2 numa:2 l3:1 l2:2 core:2 pu:2";
constexpr const char* kLayouts[] = {"scbnh", "hcsbn", "nhcsb", "bnhsc",
                                    "cbsnh", "hsbcn", "sbnch", "nbcsh"};

// One service configuration under test, with its warm request stream.
struct Mode {
  std::unique_ptr<svc::MappingService> service;
  std::vector<svc::MapRequest> stream;
  std::uint64_t best_ns = ~0ull;
};

Mode make_mode(const Allocation& alloc, std::size_t flight_recorder,
               std::uint32_t trace_sample) {
  svc::ServiceConfig config;
  config.workers = 0;
  config.cache_shards = 8;
  config.shard_capacity = 64;
  config.flight_recorder = flight_recorder;
  config.trace_sample = trace_sample;
  Mode mode;
  mode.service = std::make_unique<svc::MappingService>(config);
  const svc::InternedAlloc interned = mode.service->intern(alloc);
  for (const char* layout : kLayouts) {
    mode.stream.push_back(
        {interned, std::string("lama:") + layout, {.np = 8}});
  }
  for (const svc::MapRequest& request : mode.stream) {
    mode.service->map(request);  // warm the cache untimed
  }
  return mode;
}

std::uint64_t time_one_repeat(Mode& mode) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < kRoundsPerRepeat; ++round) {
    for (const svc::MapRequest& request : mode.stream) {
      const svc::MapResponse response = mode.service->map(request);
      if (!response.ok()) std::abort();  // a miss would invalidate timing
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_s3_obs.json");
  const double threshold = argc > 2 ? std::atof(argv[2]) : 0.05;
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(8, kDeepNode));

  // The repeats of the three modes are interleaved (off, sampled, always,
  // off, sampled, always, …) so every mode's minimum samples the same
  // noise environment — running the modes back to back lets machine drift
  // (frequency scaling, noisy neighbors) masquerade as tracing overhead.
  Mode off = make_mode(alloc, 0, 0);
  Mode sampled = make_mode(alloc, 16, kSampleEvery);
  Mode always = make_mode(alloc, 16, 1);
  for (std::size_t r = 0; r < kRepeats; ++r) {
    off.best_ns = std::min(off.best_ns, time_one_repeat(off));
    sampled.best_ns = std::min(sampled.best_ns, time_one_repeat(sampled));
    always.best_ns = std::min(always.best_ns, time_one_repeat(always));
  }
  const std::uint64_t off_ns = off.best_ns;
  const std::uint64_t sampled_ns = sampled.best_ns;
  const std::uint64_t always_ns = always.best_ns;

  const double overhead_sampled =
      static_cast<double>(sampled_ns) / static_cast<double>(off_ns) - 1.0;
  const double overhead_always =
      static_cast<double>(always_ns) / static_cast<double>(off_ns) - 1.0;
  const bool pass = overhead_sampled <= threshold;

  const std::size_t requests_per_repeat =
      kRoundsPerRepeat * (sizeof(kLayouts) / sizeof(kLayouts[0]));
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"s3_obs\",\n"
               "  \"requests_per_repeat\": %zu,\n"
               "  \"repeats\": %zu,\n"
               "  \"sample_every\": %u,\n"
               "  \"off_ns\": %llu,\n"
               "  \"sampled_ns\": %llu,\n"
               "  \"always_ns\": %llu,\n"
               "  \"overhead_sampled\": %.4f,\n"
               "  \"overhead_always\": %.4f,\n"
               "  \"threshold\": %.4f,\n"
               "  \"pass\": %s\n"
               "}\n",
               requests_per_repeat, kRepeats, kSampleEvery,
               static_cast<unsigned long long>(off_ns),
               static_cast<unsigned long long>(sampled_ns),
               static_cast<unsigned long long>(always_ns), overhead_sampled,
               overhead_always, threshold, pass ? "true" : "false");
  std::fclose(out);
  std::printf(
      "s3_obs: %zu warm requests/repeat  off=%.3f ms  sampled(1/%u)=%.3f ms "
      " always=%.3f ms  overhead_sampled=%.4f  overhead_always=%.4f  %s\n",
      requests_per_repeat, off_ns / 1e6, kSampleEvery, sampled_ns / 1e6,
      always_ns / 1e6, overhead_sampled, overhead_always,
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
