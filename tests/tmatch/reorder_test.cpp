#include "tmatch/reorder.hpp"

#include <gtest/gtest.h>

#include <set>

#include "lama/baselines.hpp"
#include "lama/mapper.hpp"
#include "lama/validate.hpp"
#include "sim/evaluator.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

TEST(Reorder, FixesStridedPairsOnPackedMapping) {
  // Packed mapping + strided partners: the worst case C2 exposes. A rank
  // permutation alone must recover locality — partners end up sharing a
  // core without moving any slot.
  const Allocation alloc = figure2_allocation(1);
  const TrafficPattern pattern = make_strided_pairs(16, 8, 4096);
  const CommMatrix matrix = CommMatrix::from_pattern(pattern);
  const MappingResult packed = map_by_slot(alloc, {.np = 16});
  const DistanceModel model = DistanceModel::commodity();

  const ReorderResult r = reorder_ranks(alloc, packed, matrix, model);
  EXPECT_LT(r.final_cost_ns, r.initial_cost_ns);
  EXPECT_GT(r.improvement(), 0.3);
  for (std::size_t rank = 0; rank < 8; ++rank) {
    EXPECT_EQ(DistanceModel::sharing_level(
                  alloc.node(r.mapping.node(rank)).topo,
                  r.mapping.representative_pu(rank),
                  r.mapping.representative_pu(rank + 8)),
              ResourceType::kCore)
        << rank;
  }
}

TEST(Reorder, PermutationIsABijectionOverSlots) {
  const Allocation alloc = figure2_allocation(2);
  const TrafficPattern pattern = make_random_sparse(32, 3, 4096, 7);
  const CommMatrix matrix = CommMatrix::from_pattern(pattern);
  const MappingResult m = map_by_node(alloc, {.np = 32});
  const ReorderResult r =
      reorder_ranks(alloc, m, matrix, DistanceModel::commodity());

  std::set<int> slots(r.permutation.begin(), r.permutation.end());
  EXPECT_EQ(slots.size(), 32u);
  EXPECT_EQ(*slots.begin(), 0);
  EXPECT_EQ(*slots.rbegin(), 31);
  // The reordered mapping is still valid.
  EXPECT_TRUE(validate_mapping(alloc, r.mapping).ok())
      << validate_mapping(alloc, r.mapping).to_string();
}

TEST(Reorder, AlreadyOptimalMappingIsAFixedPoint) {
  const Allocation alloc = figure2_allocation(1);
  // Pairs on a packed mapping: partners already share cores.
  const CommMatrix matrix =
      CommMatrix::from_pattern(make_pairs(16, 4096));
  const MappingResult packed = map_by_slot(alloc, {.np = 16});
  const ReorderResult r =
      reorder_ranks(alloc, packed, matrix, DistanceModel::commodity());
  EXPECT_EQ(r.swaps_applied, 0u);
  EXPECT_DOUBLE_EQ(r.final_cost_ns, r.initial_cost_ns);
  for (int rank = 0; rank < 16; ++rank) {
    EXPECT_EQ(r.permutation[static_cast<std::size_t>(rank)], rank);
  }
}

TEST(Reorder, ReorderedMappingPricesLowerEndToEnd) {
  const Allocation alloc = figure2_allocation(2);
  const TrafficPattern pattern = make_random_sparse(32, 4, 8192, 13);
  const CommMatrix matrix = CommMatrix::from_pattern(pattern);
  const MappingResult m = map_by_slot(alloc, {.np = 32});
  const DistanceModel model = DistanceModel::commodity();
  const ReorderResult r = reorder_ranks(alloc, m, matrix, model);
  const double before = evaluate_mapping(alloc, m, pattern, model).total_ns;
  const double after =
      evaluate_mapping(alloc, r.mapping, pattern, model).total_ns;
  EXPECT_LT(after, before);
}

TEST(Reorder, IsDeterministic) {
  const Allocation alloc = figure2_allocation(1);
  const CommMatrix matrix =
      CommMatrix::from_pattern(make_random_sparse(16, 3, 1024, 3));
  const MappingResult m = map_by_slot(alloc, {.np = 16});
  const ReorderResult a =
      reorder_ranks(alloc, m, matrix, DistanceModel::commodity());
  const ReorderResult b =
      reorder_ranks(alloc, m, matrix, DistanceModel::commodity());
  EXPECT_EQ(a.permutation, b.permutation);
  EXPECT_EQ(a.swaps_applied, b.swaps_applied);
}

TEST(Reorder, Validation) {
  const Allocation alloc = figure2_allocation(1);
  const CommMatrix matrix = CommMatrix::from_pattern(make_pairs(8, 1));
  const MappingResult m = map_by_slot(alloc, {.np = 16});
  EXPECT_THROW(
      reorder_ranks(alloc, m, matrix, DistanceModel::commodity()),
      MappingError);
  const MappingResult m8 = map_by_slot(alloc, {.np = 8});
  EXPECT_THROW(
      reorder_ranks(alloc, m8, matrix, DistanceModel::commodity(), 0),
      MappingError);
}

}  // namespace
}  // namespace lama
