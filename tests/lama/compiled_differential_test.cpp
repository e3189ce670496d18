// Differential sweep for the compiled kernel: a seeded 1000-permutation
// sample of the 9! full-alphabet layout space (the same sample, from the
// same seed, as layout_sweep_test.cpp) on homogeneous, heterogeneous, and
// off-lined allocations. For every sampled layout the compiled plan must
// reproduce the reference walk byte-for-byte. The exhaustive 362,880-layout
// compiled sweep rides in full_sweep_slow_test.cpp under the "slow" label.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "support/rng.hpp"

namespace lama {
namespace {

constexpr std::uint64_t kSampleSeed = 0x1a2a5eedULL;
constexpr std::size_t kSampleSize = 1000;

std::set<std::uint64_t> sampled_indices() {
  SplitMix64 rng(kSampleSeed);
  std::set<std::uint64_t> picks;
  const std::uint64_t space = ProcessLayout::num_full_permutations();
  while (picks.size() < kSampleSize) picks.insert(rng.next_below(space));
  return picks;
}

// One reusable executor across the whole sweep — the steady-state shape the
// service runs, so rebinding bugs (state leaking between plans) would
// surface as mismatches here.
void sweep_allocation(const Allocation& alloc, std::size_t np,
                      const char* tag) {
  const std::set<std::uint64_t> picks = sampled_indices();
  PlanExecutor exec;
  MappingResult got;
  std::uint64_t index = 0;
  std::size_t tested = 0;
  ProcessLayout::for_each_full_permutation([&](const ProcessLayout& layout) {
    const bool picked = picks.count(index) != 0;
    ++index;
    if (!picked) return;
    ++tested;

    const MaximalTree mtree(alloc, layout);
    const MapOptions opts{.np = np};
    const MappingResult want = lama_map(alloc, layout, opts, mtree);
    const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
    lama_map_compiled(alloc, opts, plan, exec, got);
    test::expect_identical_mappings(
        want, got, std::string(tag) + " " + layout.to_string());
  });
  EXPECT_EQ(tested, kSampleSize);
}

TEST(CompiledDifferential, HomogeneousSample) {
  // Oversubscribed (np > 16 PUs) so wraparound sweeps are in the sample.
  sweep_allocation(test::small_smt_allocation(), 20, "homogeneous");
}

TEST(CompiledDifferential, HeterogeneousSample) {
  sweep_allocation(test::hetero_two_node_allocation(), 11, "heterogeneous");
}

TEST(CompiledDifferential, OfflinedSample) {
  sweep_allocation(test::hetero_two_node_offline_allocation(), 9, "offlined");
}

}  // namespace
}  // namespace lama
