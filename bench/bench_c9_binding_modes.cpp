// C9 — §III-B's three enforcement modes: "no restrictions" (the OS may run
// the process anywhere), "limited set restrictions" (a common subset), and
// "specific resource restrictions" (unique processors per process), of which
// the last "provides the best possibility for optimal execution" because it
// eliminates inter-processor migration. Reproduced as a migration study:
// an iterative neighbour application where unpinned processes are moved by
// a simulated OS scheduler between rounds, paying a cache-rewarm penalty and
// losing the locality the mapping had arranged.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "lama/binding.hpp"
#include "lama/mapper.hpp"
#include "sim/evaluator.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace lama;

constexpr double kRewarmNs = 15000.0;  // cache/TLB refill after a migration
constexpr double kMigrationProb = 0.35;
constexpr std::size_t kRounds = 20;

Allocation smt_cluster() {
  return allocate_all(Cluster::homogeneous(2, "socket:2 core:4 pu:2"));
}

struct ModeResult {
  double comm_ms = 0.0;
  double rewarm_ms = 0.0;
  std::size_t migrations = 0;
  [[nodiscard]] double total_ms() const { return comm_ms + rewarm_ms; }
};

// Runs `rounds` of the pattern with per-round OS migration inside each
// process's allowed cpuset (the binding). Deterministic in `seed`.
ModeResult run_mode(const Allocation& alloc, const MappingResult& mapping,
                    const BindingResult& binding,
                    const TrafficPattern& pattern, std::uint64_t seed) {
  const DistanceModel model = DistanceModel::commodity();
  SplitMix64 rng(seed);
  ModeResult result;

  // Current PU per rank; start at the mapped representative.
  MappingResult current = mapping;
  for (std::size_t round = 0; round < kRounds; ++round) {
    result.comm_ms +=
        evaluate_mapping(alloc, current, pattern, model).total_ns / 1e6;
    // OS scheduling decision between rounds: each rank whose allowed set
    // has more than one PU may be moved within it.
    for (std::size_t r = 0; r < current.num_procs(); ++r) {
      const Bitmap& allowed = binding.bindings[r].cpuset;
      if (allowed.count() <= 1 || !rng.next_bool(kMigrationProb)) continue;
      const std::size_t choice = rng.next_below(allowed.count());
      const std::size_t pu = allowed.nth(choice);
      if (pu != current.representative_pu(r)) {
        current.set_pus(r, Bitmap::single(pu));
        ++result.migrations;
        result.rewarm_ms += kRewarmNs / 1e6;
      }
    }
  }
  return result;
}

void print_binding_modes() {
  const Allocation alloc = smt_cluster();
  const std::size_t np = alloc.total_online_pus();
  const TrafficPattern pattern = make_pairs(static_cast<int>(np), 8192);
  const MappingResult mapping = lama_map(alloc, "hcsbn", {.np = np});

  std::printf(
      "=== C9: binding enforcement modes (pairs pattern, %zu rounds, "
      "migration prob %.2f) ===\n",
      kRounds, kMigrationProb);
  TextTable table({"mode", "comm ms", "rewarm ms", "total ms", "migrations"});

  struct Mode {
    const char* name;
    BindTarget target;
  };
  for (const Mode& mode :
       {Mode{"specific resource (bind hwthread)", BindTarget::kHwThread},
        Mode{"specific resource (bind core)", BindTarget::kCore},
        Mode{"limited set (bind socket)", BindTarget::kSocket},
        Mode{"no restrictions (node-wide)", BindTarget::kNone}}) {
    const BindingResult binding =
        bind_processes(alloc, mapping, {.target = mode.target});
    const ModeResult r = run_mode(alloc, mapping, binding, pattern, 42);
    table.add_row({mode.name, TextTable::cell(r.comm_ms, 3),
                   TextTable::cell(r.rewarm_ms, 3),
                   TextTable::cell(r.total_ms(), 3),
                   TextTable::cell(r.migrations)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "(narrower bindings forbid migration: no rewarm cost and the mapped "
      "locality survives — §III-B's ranking reproduced)\n\n");
}

void BM_MigrationStudy(benchmark::State& state) {
  const Allocation alloc = smt_cluster();
  const std::size_t np = alloc.total_online_pus();
  const TrafficPattern pattern = make_pairs(static_cast<int>(np), 8192);
  const MappingResult mapping = lama_map(alloc, "hcsbn", {.np = np});
  const BindingResult binding =
      bind_processes(alloc, mapping, {.target = BindTarget::kNone});
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_mode(alloc, mapping, binding, pattern, 42));
  }
}
BENCHMARK(BM_MigrationStudy);

}  // namespace

int main(int argc, char** argv) {
  print_binding_modes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
