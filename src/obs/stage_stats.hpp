// Per-stage latency distributions: one LatencyHistogram per trace stage,
// updated wait-free at every span end of every request, plus a
// per-(stage, bucket) exemplar slot remembering the slowest recent sampled
// trace's id. These histograms are the service's only latency record —
// STATS, METRICS, WATCH and `lamactl top` all read them. The exemplars are
// what make them actionable: a p99 bucket in the Prometheus exposition
// links straight to a TRACE id the flight recorder can expand.
//
// Exemplar slots are a pair of relaxed atomics (trace id, ns). A racing
// writer can momentarily pair one sample's id with another's ns; both values
// are still real observations from the same bucket (a factor-of-two span),
// so the tear is benign for telemetry and invisible to TSan.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/span.hpp"
#include "support/histogram.hpp"

namespace lama::obs {

class StageStats {
 public:
  static constexpr std::size_t kNumBuckets = LatencyHistogram::kNumBuckets;

  struct Exemplar {
    std::uint64_t trace_id = 0;  // 0 = no sample observed in this bucket
    std::uint64_t ns = 0;
  };

  // Record one finished span. `exemplar_trace` of 0 updates the histogram
  // only — used for samples whose trace will not be assembled, so every
  // exported exemplar id stays resolvable through the TRACE verb.
  void record(Stage stage, std::uint64_t ns, std::uint64_t exemplar_trace);

  [[nodiscard]] const LatencyHistogram& histogram(Stage stage) const {
    return stages_[static_cast<std::size_t>(stage)].hist;
  }

  [[nodiscard]] Exemplar exemplar(Stage stage, std::size_t bucket) const;

 private:
  struct PerStage {
    LatencyHistogram hist;
    std::array<std::atomic<std::uint64_t>, kNumBuckets> exemplar_trace{};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> exemplar_ns{};
  };

  std::array<PerStage, kStageCount> stages_{};
};

}  // namespace lama::obs
