// Exhaustive 9! = 362,880 layout-permutation sweep — every ordering of the
// full Table I alphabet mapped on a two-node heterogeneous allocation with
// off-lined resources, asserting for each one that every rank is placed, no
// target is used twice below capacity, and availability skipping is honored.
// The compiled plan kernel must reproduce the reference walk byte-for-byte
// on every permutation. This binary carries the "slow" ctest
// label; the default-speed seeded sample of the same space lives in
// layout_sweep_test.cpp and compiled_differential_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"

namespace lama {
namespace {

TEST(FullLayoutSweep, All362880PermutationsSatisfyPaperInvariants) {
  const Allocation alloc = test::hetero_two_node_offline_allocation();
  const std::size_t capacity = 9;  // 6 online SMT PUs + 3 bare cores
  const Bitmap offline_node0 = Bitmap::range(2, 3);
  const MapOptions opts{.np = capacity};

  std::uint64_t index = 0;
  std::uint64_t failures = 0;
  // One executor and output record for the whole sweep: 9! compiled walks
  // with zero steady-state allocations is itself part of the contract.
  PlanExecutor executor;
  MappingResult compiled;
  ProcessLayout::for_each_full_permutation([&](const ProcessLayout& layout) {
    ++index;
    const MaximalTree mtree(alloc, layout);
    const MappingResult m = lama_map(alloc, layout, opts, mtree);

    // Inline checks (not EXPECT per field): a gtest assertion per
    // coordinate would dominate the sweep's runtime. Failures fall through
    // to one detailed EXPECT below.
    bool ok = m.num_procs() == capacity && m.sweeps == 1 &&
              !m.pu_oversubscribed && !m.slot_oversubscribed &&
              m.visited == m.skipped + m.num_procs();
    std::set<std::pair<std::size_t, std::string>> used;
    for (std::size_t r = 0; r < m.num_procs(); ++r) {
      ok = ok && !m.pus(r).empty() &&
           used.insert({m.node(r), m.pus(r).to_string()}).second &&
           (m.node(r) != 0 || !m.pus(r).intersects(offline_node0));
    }
    if (!ok) {
      ++failures;
      EXPECT_TRUE(ok) << "invariant violated for layout "
                      << layout.to_string() << ":\n"
                      << test::format_mapping_table(m);
    }

    // The compiled kernel on every permutation: plan compilation plus an
    // executor-reusing walk must be byte-identical to the reference.
    const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
    lama_map_compiled(alloc, opts, plan, executor, compiled);
    if (!test::identical_mappings(m, compiled)) {
      ++failures;
      test::expect_identical_mappings(m, compiled,
                                      layout.to_string() + " compiled");
    }
  });
  EXPECT_EQ(index, ProcessLayout::num_full_permutations());
  EXPECT_EQ(failures, 0u);
}

}  // namespace
}  // namespace lama
