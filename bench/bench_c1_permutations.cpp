// C1 — the paper's headline capability claim: "As implemented in Open MPI,
// the LAMA provides 362,880 mapping permutations". Enumerates every full
// permutation of the Table I alphabet, validates that each one is a legal
// layout, maps a small job under a deterministic sample, and counts how many
// distinct placements the permutation space actually produces on a concrete
// machine.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>
#include <string>

#include "lama/mapper.hpp"
#include "support/table.hpp"

namespace {

using namespace lama;

void print_permutation_report() {
  // 1. Every permutation is a valid layout.
  std::uint64_t count = 0;
  ProcessLayout::for_each_full_permutation([&](const ProcessLayout& l) {
    ++count;
    if (l.size() != 9) std::abort();
  });
  std::printf("=== C1: mapping permutation space ===\n");
  std::printf("enumerated full layouts: %llu (claim: %llu)\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(
                  ProcessLayout::num_full_permutations()));

  // 2. How many *distinct mappings* those layouts induce on a real machine
  //    (many permutations coincide when hardware levels are degenerate, e.g.
  //    swapping two width-1 cache levels changes nothing).
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(2, "socket:2 numa:2 l3:1 l2:2 l1:1 core:2 pu:2"));
  const std::size_t np = 16;
  std::set<std::string> distinct;
  std::uint64_t sampled = 0;
  std::uint64_t i = 0;
  ProcessLayout::for_each_full_permutation([&](const ProcessLayout& l) {
    // Deterministic 1-in-16 sample keeps the sweep under a second.
    if (i++ % 16 != 0) return;
    ++sampled;
    const MappingResult m = lama_map(alloc, l, {.np = np});
    std::string key;
    for (std::size_t r = 0; r < m.num_procs(); ++r) {
      key += std::to_string(m.node(r)) + ":" +
             std::to_string(m.representative_pu(r)) + ";";
    }
    distinct.insert(std::move(key));
  });
  std::printf(
      "sampled %llu layouts on a 2-node NUMA cluster (np=%zu): %zu distinct "
      "rank placements\n\n",
      static_cast<unsigned long long>(sampled), np, distinct.size());
}

void BM_EnumerateAllPermutations(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t n = 0;
    ProcessLayout::for_each_full_permutation(
        [&](const ProcessLayout&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 362880);
}
BENCHMARK(BM_EnumerateAllPermutations)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_permutation_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
