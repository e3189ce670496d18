// A4 — ablation: rank reordering on top of mapping. Remapping moves
// processes; reordering only permutes rank numbers within the slots a
// mapping already chose (no launch-time control needed). Measures how much
// of the gap between a naive mapping and the matrix-driven mapper a
// reordering pass recovers, and what the exchange passes cost: O(np^2 * d)
// each for a matrix of average degree d.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "lama/baselines.hpp"
#include "sim/evaluator.hpp"
#include "support/table.hpp"
#include "tmatch/reorder.hpp"
#include "tmatch/treematch.hpp"

namespace {

using namespace lama;

Allocation numa_cluster(std::size_t nodes = 2) {
  return allocate_all(
      Cluster::homogeneous(nodes, "socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2"));
}

void print_reorder_report() {
  const Allocation alloc = numa_cluster();
  const std::size_t np = alloc.total_online_pus();
  const DistanceModel model = DistanceModel::commodity();

  std::printf(
      "=== A4: rank reordering vs remapping (np=%zu, 2 NUMA nodes) ===\n", np);
  TextTable table({"pattern", "by-slot ms", "+reorder ms", "treematch ms",
                   "reorder swaps"});
  std::vector<TrafficPattern> patterns;
  patterns.push_back(
      make_strided_pairs(static_cast<int>(np), static_cast<int>(np / 2),
                         8192));
  patterns.push_back(make_random_sparse(static_cast<int>(np), 4, 4096, 23));
  patterns.push_back(make_ring(static_cast<int>(np), 8192));

  for (const TrafficPattern& pattern : patterns) {
    const CommMatrix matrix = CommMatrix::from_pattern(pattern);
    const MappingResult base = map_by_slot(alloc, {.np = np});
    const ReorderResult reordered = reorder_ranks(alloc, base, matrix, model);
    const MappingResult tm = map_treematch(alloc, matrix, {.np = np});

    const double base_ns =
        evaluate_mapping(alloc, base, pattern, model).total_ns;
    const double reorder_ns =
        evaluate_mapping(alloc, reordered.mapping, pattern, model).total_ns;
    const double tm_ns = evaluate_mapping(alloc, tm, pattern, model).total_ns;
    table.add_row({pattern.name, TextTable::cell(base_ns / 1e6, 3),
                   TextTable::cell(reorder_ns / 1e6, 3),
                   TextTable::cell(tm_ns / 1e6, 3),
                   TextTable::cell(reordered.swaps_applied)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void BM_ReorderPass(benchmark::State& state) {
  const std::size_t np = static_cast<std::size_t>(state.range(0));
  // 32 PUs per node: one PU per rank from np 64 up.
  const Allocation alloc = numa_cluster(std::max<std::size_t>(2, np / 32));
  const TrafficPattern pattern =
      make_random_sparse(static_cast<int>(np), 4, 4096, 23);
  const CommMatrix matrix = CommMatrix::from_pattern(pattern);
  const MappingResult base = map_by_slot(alloc, {.np = np});
  const DistanceModel model = DistanceModel::commodity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reorder_ranks(alloc, base, matrix, model, 2));
  }
}
BENCHMARK(BM_ReorderPass)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reorder_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
