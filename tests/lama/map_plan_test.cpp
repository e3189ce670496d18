// Compiled-kernel unit tests: plan geometry (odometer strides, slot/skip
// accounting), byte-identity of lama_map_compiled against the reference
// walk across option space (caps, multi-PU, oversubscription wraparound,
// heterogeneous and off-lined allocations), error-message parity for every
// failure mode, the iteration-policy guard, and the compile space limit.
// The broad layout coverage lives in compiled_differential_test.cpp; the
// allocation-freedom guarantee in zero_alloc_test.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

// Skipped coordinates the executor's single scan charges per sweep: every
// slot's skips_before plus the plan's trailing skips.
std::uint64_t skip_mass(const MapPlan& plan) {
  std::uint64_t skips = plan.trailing_skips;
  for (const MapPlan::Slot& s : plan.slots) skips += s.skips_before;
  return skips;
}

TEST(MapPlan, OdometerGeometryMatchesTheMaximalTree) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});

  ASSERT_EQ(plan.extents.size(), layout.order().size());
  std::uint64_t space = 1;
  for (std::size_t l = 0; l < plan.extents.size(); ++l) {
    EXPECT_EQ(plan.vstride[l], space) << l;  // innermost stride 1
    space *= plan.extents[l];
  }
  EXPECT_EQ(plan.space, space);
  EXPECT_EQ(plan.space, map_plan_space(mtree, layout, IterationPolicy{}));
  EXPECT_EQ(plan.num_nodes, alloc.num_nodes());
  EXPECT_FALSE(plan.layout_string.empty());
  EXPECT_TRUE(plan.default_policy);
  EXPECT_NE(plan.uid, 0u);

  // Homogeneous, fully-online machine: every slot viable, positions strictly
  // ascending, no skip gaps anywhere.
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    const MapPlan::Slot& s = plan.slots[i];
    ASSERT_NE(s.pus, nullptr);
    EXPECT_EQ(s.skips_before, 0u) << i;
    if (i > 0) {
      EXPECT_LT(plan.slots[i - 1].pos, s.pos);
    }
  }
  EXPECT_EQ(plan.slots.size(), plan.space);
  EXPECT_EQ(skip_mass(plan), 0u);

  // Heterogeneous and off-lined machines leave real gaps. The single scan
  // relies on slots and skips covering the space exactly once per sweep.
  for (const Allocation& a : {test::hetero_two_node_allocation(),
                              test::hetero_two_node_offline_allocation()}) {
    for (const char* layout_str : {"scbnh", "hcsbn", "bhnsc"}) {
      const ProcessLayout l = ProcessLayout::parse(layout_str);
      const MaximalTree t(a, l);
      const MapPlan p = compile_map_plan(t, l, IterationPolicy{});
      EXPECT_GT(skip_mass(p), 0u) << layout_str;
      EXPECT_EQ(skip_mass(p) + p.slots.size(), p.space) << layout_str;
    }
  }
}

TEST(MapPlan, CompiledMatchesReferenceOnTheWorkedExample) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  for (std::size_t np : {1, 2, 8, 24, 32}) {
    const MapOptions opts{.np = np};
    test::expect_identical_mappings(
        lama_map(alloc, layout, opts, mtree),
        lama_map_compiled(alloc, opts, plan),
        "scbnh np=" + std::to_string(np));
  }
}

TEST(MapPlan, CompiledMatchesReferenceAcrossOptionSpace) {
  struct Case {
    const char* name;
    Allocation alloc;
    const char* layout;
    MapOptions opts;
  };
  std::vector<Case> cases;
  {
    MapOptions caps{.np = 8};
    caps.set_cap(ResourceType::kNode, 4);
    caps.set_cap(ResourceType::kCore, 1);
    cases.push_back(
        {"resource caps", test::figure2_allocation(), "nschb", caps});
  }
  cases.push_back({"multi-PU accumulation", test::figure2_allocation(),
                   "scbnh", MapOptions{.np = 8, .pus_per_proc = 2}});
  cases.push_back({"oversubscription wraparound",
                   test::small_smt_allocation(), "hcsnb",
                   MapOptions{.np = 40}});
  cases.push_back({"heterogeneous skipping",
                   test::hetero_two_node_allocation(), "bhnsc",
                   MapOptions{.np = 11}});
  cases.push_back({"offline availability",
                   test::hetero_two_node_offline_allocation(), "cnbsh",
                   MapOptions{.np = 9}});
  cases.push_back({"deep multi-level", test::multi_level_allocation(),
                   "nschb", MapOptions{.np = 64}});

  for (Case& c : cases) {
    const ProcessLayout layout = ProcessLayout::parse(c.layout);
    const MaximalTree mtree(c.alloc, layout);
    const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
    test::expect_identical_mappings(lama_map(c.alloc, layout, c.opts, mtree),
                                    lama_map_compiled(c.alloc, c.opts, plan),
                                    c.name);
  }
}

// Every failure mode of the reference walk must fail identically from the
// compiled kernel — same exception type, same message.
TEST(MapPlan, ErrorParityWithTheReferenceWalk) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});

  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };

  // Oversubscription refused by policy.
  {
    const MapOptions opts{.np = 33, .allow_oversubscribe = false};
    const std::string want = message_of(
        [&] { (void)lama_map(alloc, layout, opts, mtree); });
    ASSERT_FALSE(want.empty());
    EXPECT_THROW((void)lama_map_compiled(alloc, opts, plan),
                 OversubscribeError);
    EXPECT_EQ(message_of([&] { (void)lama_map_compiled(alloc, opts, plan); }),
              want);
  }

  // A sweep that can place nothing: caps exhausted before np is reached.
  {
    MapOptions opts{.np = 5};
    opts.set_cap(ResourceType::kNode, 2);
    const std::string want = message_of(
        [&] { (void)lama_map(alloc, layout, opts, mtree); });
    ASSERT_FALSE(want.empty());
    EXPECT_THROW((void)lama_map_compiled(alloc, opts, plan), MappingError);
    EXPECT_EQ(message_of([&] { (void)lama_map_compiled(alloc, opts, plan); }),
              want);
  }

  // An already-expired deadline cancels both walks with the same message.
  {
    const MapOptions opts{.np = 4, .deadline_ns = 1};
    const std::string want = message_of(
        [&] { (void)lama_map(alloc, layout, opts, mtree); });
    ASSERT_FALSE(want.empty());
    EXPECT_THROW((void)lama_map_compiled(alloc, opts, plan), CancelledError);
    EXPECT_EQ(message_of([&] { (void)lama_map_compiled(alloc, opts, plan); }),
              want);
  }

  // Invalid np.
  EXPECT_THROW((void)lama_map_compiled(alloc, MapOptions{.np = 0}, plan),
               MappingError);
}

TEST(MapPlan, CustomPolicyIsRefusedByDefaultPolicyPlans) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  MapOptions opts{.np = 4};
  opts.iteration.set(ResourceType::kCore,
                     {.order = IterationOrder::kReverse});
  EXPECT_THROW((void)lama_map_compiled(alloc, opts, plan), MappingError);
}

TEST(MapPlan, PolicyCompiledPlansFollowThePolicy) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  IterationPolicy policy;
  policy.set(ResourceType::kCore, {.order = IterationOrder::kReverse});
  policy.set(ResourceType::kSocket, {.order = IterationOrder::kStrided,
                                     .stride = 2});
  const MapPlan plan = compile_map_plan(mtree, layout, policy);
  EXPECT_FALSE(plan.default_policy);
  MapOptions opts{.np = 16};
  opts.iteration = policy;
  test::expect_identical_mappings(lama_map(alloc, layout, opts, mtree),
                                  lama_map_compiled(alloc, opts, plan),
                                  "custom policy");
}

TEST(MapPlan, CompileSpaceLimitRefusesPathologicalPlans) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const std::uint64_t space = map_plan_space(mtree, layout, IterationPolicy{});
  EXPECT_THROW(
      (void)compile_map_plan(mtree, layout, IterationPolicy{}, space - 1),
      MappingError);
  // At exactly the limit the compile goes through.
  const MapPlan plan =
      compile_map_plan(mtree, layout, IterationPolicy{}, space);
  EXPECT_EQ(plan.space, space);
}

TEST(MapPlan, OneExecutorServesManyPlansAndRuns) {
  const Allocation f2 = test::figure2_allocation();
  const Allocation het = test::hetero_two_node_allocation();
  const ProcessLayout l1 = ProcessLayout::parse("scbnh");
  const ProcessLayout l2 = ProcessLayout::parse("nschb");
  const MaximalTree t1(f2, l1);
  const MaximalTree t2(het, l2);
  const MapPlan p1 = compile_map_plan(t1, l1, IterationPolicy{});
  const MapPlan p2 = compile_map_plan(t2, l2, IterationPolicy{});

  PlanExecutor exec;
  MappingResult out;
  // Interleave plans and option sets through the same executor: rebinding
  // must never leak state from the previous run.
  for (int round = 0; round < 3; ++round) {
    const MapOptions o1{.np = 24};
    lama_map_compiled(f2, o1, p1, exec, out);
    test::expect_identical_mappings(lama_map(f2, l1, o1, t1), out, "p1");
    const MapOptions o2{.np = 11, .pus_per_proc = 1};
    lama_map_compiled(het, o2, p2, exec, out);
    test::expect_identical_mappings(lama_map(het, l2, o2, t2), out, "p2");
  }
}

}  // namespace
}  // namespace lama
