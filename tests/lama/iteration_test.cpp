#include "lama/iteration.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "lama/mapper.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

TEST(IterationPolicy, DefaultIsSequential) {
  const IterationPolicy policy;
  const std::vector<std::size_t> expected = {0, 1, 2, 3};
  EXPECT_EQ(policy.visit_order(ResourceType::kCore, 4), expected);
  EXPECT_EQ(policy.get(ResourceType::kCore).order,
            IterationOrder::kSequential);
}

TEST(IterationPolicy, Reverse) {
  IterationPolicy policy;
  policy.set(ResourceType::kSocket, {.order = IterationOrder::kReverse});
  const std::vector<std::size_t> expected = {3, 2, 1, 0};
  EXPECT_EQ(policy.visit_order(ResourceType::kSocket, 4), expected);
  // Other levels stay sequential.
  EXPECT_EQ(policy.visit_order(ResourceType::kCore, 2),
            (std::vector<std::size_t>{0, 1}));
}

TEST(IterationPolicy, Strided) {
  IterationPolicy policy;
  policy.set(ResourceType::kCore,
             {.order = IterationOrder::kStrided, .stride = 2});
  const std::vector<std::size_t> expected = {0, 2, 4, 6, 1, 3, 5, 7};
  EXPECT_EQ(policy.visit_order(ResourceType::kCore, 8), expected);
  // Stride larger than width degenerates to sequential-by-phase.
  policy.set(ResourceType::kCore,
             {.order = IterationOrder::kStrided, .stride = 10});
  EXPECT_EQ(policy.visit_order(ResourceType::kCore, 3),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(IterationPolicy, StrideZeroThrows) {
  IterationPolicy policy;
  policy.set(ResourceType::kCore,
             {.order = IterationOrder::kStrided, .stride = 0});
  EXPECT_THROW(policy.visit_order(ResourceType::kCore, 4), MappingError);
}

TEST(IterationPolicy, CustomOrderFiltersOutOfRange) {
  IterationPolicy policy;
  policy.set(ResourceType::kSocket,
             {.order = IterationOrder::kCustom, .custom = {2, 0, 9, 1}});
  EXPECT_EQ(policy.visit_order(ResourceType::kSocket, 3),
            (std::vector<std::size_t>{2, 0, 1}));
}

TEST(IterationPolicy, CustomDuplicateThrows) {
  IterationPolicy policy;
  policy.set(ResourceType::kSocket,
             {.order = IterationOrder::kCustom, .custom = {0, 1, 0}});
  EXPECT_THROW(policy.visit_order(ResourceType::kSocket, 3), MappingError);
}

// --- policies applied through the mapper ---

using test::figure2_allocation;

TEST(MapperIteration, ReverseSocketOrder) {
  MapOptions opts{.np = 4};
  opts.iteration.set(ResourceType::kSocket,
                     {.order = IterationOrder::kReverse});
  const MappingResult m = lama_map(figure2_allocation(), "scbnh", opts);
  // Socket 1 now comes first: rank 0 on PU 8, rank 1 on PU 0.
  EXPECT_EQ(m.representative_pu(0), 8u);
  EXPECT_EQ(m.representative_pu(1), 0u);
}

TEST(MapperIteration, ReverseNodeOrder) {
  MapOptions opts{.np = 4};
  opts.iteration.set(ResourceType::kNode, {.order = IterationOrder::kReverse});
  const MappingResult m = lama_map(figure2_allocation(3), "nhcsb", opts);
  EXPECT_EQ(m.node(0), 2u);
  EXPECT_EQ(m.node(1), 1u);
  EXPECT_EQ(m.node(2), 0u);
  EXPECT_EQ(m.node(3), 2u);
}

TEST(MapperIteration, StridedCoreOrderInterleaves) {
  MapOptions opts{.np = 4};
  opts.iteration.set(ResourceType::kCore,
                     {.order = IterationOrder::kStrided, .stride = 2});
  const MappingResult m = lama_map(figure2_allocation(1), "chsbn", opts);
  // Core order 0,2,1,3 -> PUs 0,4,2,6.
  EXPECT_EQ(m.representative_pu(0), 0u);
  EXPECT_EQ(m.representative_pu(1), 4u);
  EXPECT_EQ(m.representative_pu(2), 2u);
  EXPECT_EQ(m.representative_pu(3), 6u);
}

TEST(MapperIteration, CustomOrderRestrictsVisitedResources) {
  MapOptions opts{.np = 4};
  opts.iteration.set(
      ResourceType::kSocket,
      {.order = IterationOrder::kCustom, .custom = {1}});  // socket 1 only
  const MappingResult m = lama_map(figure2_allocation(1), "scbnh", opts);
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_GE(m.representative_pu(r), 8u);
  }
}

TEST(MapperIteration, CustomEmptyOrderCannotMap) {
  MapOptions opts{.np = 2};
  opts.iteration.set(ResourceType::kSocket,
                     {.order = IterationOrder::kCustom, .custom = {}});
  EXPECT_THROW(lama_map(figure2_allocation(1), "scbnh", opts), MappingError);
}

TEST(MapperIteration, PolicyPreservesCompleteness) {
  // Any bijective visit order still covers every PU exactly once per sweep.
  MapOptions opts{.np = 16};
  opts.iteration.set(ResourceType::kSocket,
                     {.order = IterationOrder::kReverse});
  opts.iteration.set(ResourceType::kCore,
                     {.order = IterationOrder::kStrided, .stride = 3});
  const MappingResult m = lama_map(figure2_allocation(1), "scbnh", opts);
  std::set<std::size_t> pus;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    pus.insert(m.representative_pu(r));
  }
  EXPECT_EQ(pus.size(), 16u);
  EXPECT_FALSE(m.pu_oversubscribed);
}

}  // namespace
}  // namespace lama
