// Seeded sample of the paper's 9! layout-permutation space on a
// heterogeneous allocation with off-lined resources. Every sampled layout
// must satisfy the mapping invariants (all ranks placed, no target used
// twice below capacity, availability skipping honored) and the compiled
// kernel must reproduce the reference mapping byte-for-byte. The
// exhaustive 362,880-layout sweep lives in
// full_sweep_slow_test.cpp under the "slow" ctest label; this sample keeps
// the default run fast while still crossing the whole space.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "support/rng.hpp"

namespace lama {
namespace {

constexpr std::uint64_t kSampleSeed = 0x1a2a5eedULL;
constexpr std::size_t kSampleSize = 1000;

// Distinct permutation indices in [0, 9!), drawn from a fixed seed so every
// run (and every CI machine) tests the same sample.
std::set<std::uint64_t> sampled_indices() {
  SplitMix64 rng(kSampleSeed);
  std::set<std::uint64_t> picks;
  const std::uint64_t space = ProcessLayout::num_full_permutations();
  while (picks.size() < kSampleSize) picks.insert(rng.next_below(space));
  return picks;
}

// The shared invariant check: see file comment. `capacity` is the number of
// distinct placement targets the allocation offers a full-alphabet layout
// (smallest distinguishable units, offline resources excluded).
void check_invariants(const MappingResult& m, std::size_t capacity,
                      const Bitmap& offline_node0) {
  ASSERT_EQ(m.num_procs(), capacity) << m.layout;
  std::set<std::pair<std::size_t, std::string>> used;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_FALSE(m.pus(r).empty()) << m.layout;
    // Injectivity below capacity: no target receives two ranks.
    EXPECT_TRUE(used.insert({m.node(r), m.pus(r).to_string()}).second)
        << m.layout << " rank " << r;
    // Availability skipping: nothing lands on an off-lined PU.
    if (m.node(r) == 0) {
      EXPECT_FALSE(m.pus(r).intersects(offline_node0))
          << m.layout << " rank " << r;
    }
  }
  EXPECT_EQ(m.sweeps, 1u) << m.layout;
  EXPECT_FALSE(m.pu_oversubscribed) << m.layout;
  EXPECT_FALSE(m.slot_oversubscribed) << m.layout;
  // Every visited coordinate either placed a rank or was skipped.
  EXPECT_EQ(m.visited, m.skipped + m.num_procs()) << m.layout;
  std::size_t total = 0;
  for (std::size_t per_node : m.procs_per_node) total += per_node;
  EXPECT_EQ(total, capacity) << m.layout;
}

TEST(LayoutSweep, SampledPermutationsInvariantAndCompiledIdentical) {
  const Allocation alloc = test::hetero_two_node_offline_allocation();
  // 6 online SMT PUs + 3 bare cores.
  const std::size_t capacity = 9;
  Bitmap offline = Bitmap::range(2, 3);
  const MapOptions opts{.np = capacity};

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
    const MappingResult want = lama_map(alloc, layout, opts, mtree);
    check_invariants(want, capacity, offline);
    const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
    lama_map_compiled(alloc, opts, plan, exec, got);
    test::expect_identical_mappings(want, got, layout.to_string());
  });
  EXPECT_EQ(tested, kSampleSize);
}

}  // namespace
}  // namespace lama
