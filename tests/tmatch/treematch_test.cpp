#include "tmatch/treematch.hpp"

#include <gtest/gtest.h>

#include <set>

#include "lama/baselines.hpp"
#include "lama/rmaps.hpp"
#include "sim/evaluator.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

// Sharing level of two ranks' representative PUs (must be on one node).
ResourceType level_between(const Allocation& alloc, const MappingResult& m,
                           std::size_t a, std::size_t b) {
  EXPECT_EQ(m.node(a), m.node(b));
  return DistanceModel::sharing_level(alloc.node(m.node(a)).topo,
                                      m.representative_pu(a),
                                      m.representative_pu(b));
}

TEST(TreeMatch, HeavyPairsShareCores) {
  const Allocation alloc = figure2_allocation(1);
  const CommMatrix matrix = CommMatrix::from_pattern(make_pairs(16, 1000));
  const MappingResult m = map_treematch(alloc, matrix, {.np = 16});
  ASSERT_EQ(m.num_procs(), 16u);
  for (std::size_t r = 0; r < 16; r += 2) {
    EXPECT_EQ(level_between(alloc, m, r, r + 1), ResourceType::kCore)
        << "pair " << r;
  }
}

TEST(TreeMatch, StridedPairsStillShareCores) {
  // The case every fixed layout loses: partners are np/2 apart in rank
  // space, but the comm matrix reveals them, so treematch pairs them up.
  const Allocation alloc = figure2_allocation(1);
  const CommMatrix matrix =
      CommMatrix::from_pattern(make_strided_pairs(16, 8, 1000));
  const MappingResult m = map_treematch(alloc, matrix, {.np = 16});
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(level_between(alloc, m, r, r + 8), ResourceType::kCore)
        << "pair " << r;
  }
}

TEST(TreeMatch, EveryRankPlacedOnDistinctPu) {
  const Allocation alloc = figure2_allocation(2);
  const CommMatrix matrix =
      CommMatrix::from_pattern(make_random_sparse(32, 3, 100, 5));
  const MappingResult m = map_treematch(alloc, matrix, {.np = 32});
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t i = 0; i < m.num_procs(); ++i) {
    EXPECT_EQ(m.pus(i).count(), 1u);
    EXPECT_TRUE(used.insert({m.node(i), m.representative_pu(i)}).second);
    EXPECT_TRUE(
        alloc.node(m.node(i)).topo.online_pus().test(m.representative_pu(i)));
  }
  EXPECT_EQ(used.size(), 32u);
}

TEST(TreeMatch, RespectsRestrictions) {
  Cluster c = Cluster::homogeneous(1, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.set_object_disabled(ResourceType::kSocket, 0,
                                                 true);
  const CommMatrix matrix = CommMatrix::from_pattern(make_pairs(8, 100));
  const MappingResult m = map_treematch(alloc, matrix, {.np = 8});
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_GE(m.representative_pu(r), 8u);
  }
}

TEST(TreeMatch, BeatsRegularMappingsOnIrregularTraffic) {
  // The reproduction of the related-work claim: on traffic no fixed layout
  // anticipates, comm-matrix-driven mapping prices below both baselines.
  const Allocation alloc = figure2_allocation(4);
  const TrafficPattern pattern = make_random_sparse(64, 4, 8192, 17);
  const CommMatrix matrix = CommMatrix::from_pattern(pattern);
  const DistanceModel model = DistanceModel::commodity();

  const double tm =
      evaluate_mapping(alloc, map_treematch(alloc, matrix, {.np = 64}),
                       pattern, model)
          .total_ns;
  const double slot =
      evaluate_mapping(alloc, map_by_slot(alloc, {.np = 64}), pattern, model)
          .total_ns;
  const double node =
      evaluate_mapping(alloc, map_by_node(alloc, {.np = 64}), pattern, model)
          .total_ns;
  EXPECT_LT(tm, slot);
  EXPECT_LT(tm, node);
}

TEST(TreeMatch, IsDeterministic) {
  const Allocation alloc = figure2_allocation(2);
  const CommMatrix matrix =
      CommMatrix::from_pattern(make_random_sparse(32, 3, 100, 9));
  const MappingResult a = map_treematch(alloc, matrix, {.np = 32});
  const MappingResult b = map_treematch(alloc, matrix, {.np = 32});
  for (std::size_t i = 0; i < a.num_procs(); ++i) {
    EXPECT_EQ(a.node(i), b.node(i));
    EXPECT_EQ(a.representative_pu(i), b.representative_pu(i));
  }
}

TEST(TreeMatch, Errors) {
  const Allocation alloc = figure2_allocation(1);
  const CommMatrix matrix = CommMatrix::from_pattern(make_pairs(8, 1));
  // np mismatch.
  EXPECT_THROW(map_treematch(alloc, matrix, {.np = 4}), MappingError);
  // No oversubscription, ever.
  const CommMatrix big = CommMatrix::from_pattern(make_pairs(64, 1));
  EXPECT_THROW(map_treematch(alloc, big, {.np = 64}), OversubscribeError);
  // Multi-PU processes unsupported.
  EXPECT_THROW(map_treematch(alloc, matrix, {.np = 8, .pus_per_proc = 2}),
               MappingError);
}

TEST(TreeMatch, NpDefaultsToMatrixSize) {
  const Allocation alloc = figure2_allocation(1);
  const CommMatrix matrix = CommMatrix::from_pattern(make_pairs(6, 1));
  const MappingResult m = map_treematch(alloc, matrix, {.np = 0});
  EXPECT_EQ(m.num_procs(), 6u);
}

TEST(TreeMatch, RegistersAsRmapsComponent) {
  RmapsRegistry registry;
  register_treematch_component(
      registry, CommMatrix::from_pattern(make_pairs(8, 100)));
  const Allocation alloc = figure2_allocation(1);
  const MappingResult m = registry.map("treematch", alloc, {.np = 8});
  EXPECT_EQ(m.layout, "treematch");
  EXPECT_EQ(m.num_procs(), 8u);
  // Priority between lama (50) and xyzt (20).
  const auto names = registry.component_names();
  EXPECT_EQ(names[0], "lama");
  EXPECT_EQ(names[1], "treematch");
}

}  // namespace
}  // namespace lama
