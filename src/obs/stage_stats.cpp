#include "obs/stage_stats.hpp"

#include <bit>

namespace lama::obs {

void StageStats::record(Stage stage, std::uint64_t ns,
                        std::uint64_t exemplar_trace) {
  PerStage& per = stages_[static_cast<std::size_t>(stage)];
  per.hist.record_ns(ns);
  if (exemplar_trace == 0) return;
  std::size_t idx = std::bit_width(ns);
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  // Keep the slowest sample seen in this bucket; ties go to the newer trace
  // so long-lived services keep pointing at traces the recorder still holds.
  if (ns >= per.exemplar_ns[idx].load(std::memory_order_relaxed)) {
    per.exemplar_ns[idx].store(ns, std::memory_order_relaxed);
    per.exemplar_trace[idx].store(exemplar_trace, std::memory_order_relaxed);
  }
}

StageStats::Exemplar StageStats::exemplar(Stage stage,
                                          std::size_t bucket) const {
  const PerStage& per = stages_[static_cast<std::size_t>(stage)];
  Exemplar ex;
  ex.trace_id = per.exemplar_trace[bucket].load(std::memory_order_relaxed);
  ex.ns = per.exemplar_ns[bucket].load(std::memory_order_relaxed);
  return ex;
}

}  // namespace lama::obs
