#include "tmatch/reorder.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "common/fixtures.hpp"
#include "lama/baselines.hpp"
#include "lama/mapper.hpp"
#include "lama/validate.hpp"
#include "sim/evaluator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

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

// The reference reorder_ranks must match bit for bit: the dense O(np^3)
// pass, in which every candidate swap rescans both ranks' full matrix rows
// and prices each nonzero term with DistanceModel::message_ns, which walks
// the topology.
ReorderResult dense_reference(const Allocation& alloc,
                              const MappingResult& mapping,
                              const CommMatrix& matrix,
                              const DistanceModel& model,
                              std::size_t max_passes) {
  const int np = static_cast<int>(mapping.num_procs());
  std::vector<int> slot_of(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) slot_of[static_cast<std::size_t>(r)] = r;
  auto pair_ns = [&](int slot_a, int slot_b, double bytes) {
    if (bytes <= 0.0) return 0.0;
    const auto a = static_cast<std::size_t>(slot_a);
    const auto b = static_cast<std::size_t>(slot_b);
    return model.message_ns(alloc, mapping.node(a),
                            mapping.representative_pu(a), mapping.node(b),
                            mapping.representative_pu(b),
                            static_cast<std::size_t>(bytes));
  };
  auto rank_cost = [&](int r) {
    double ns = 0.0;
    for (int q = 0; q < np; ++q) {
      if (q == r) continue;
      const double bytes = matrix.at(r, q);
      if (bytes > 0.0) {
        ns += pair_ns(slot_of[static_cast<std::size_t>(r)],
                      slot_of[static_cast<std::size_t>(q)], bytes);
      }
    }
    return ns;
  };
  auto total_cost = [&]() {
    double ns = 0.0;
    for (int r = 0; r < np; ++r) ns += rank_cost(r);
    return ns / 2.0;
  };

  ReorderResult result;
  result.initial_cost_ns = total_cost();
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    bool improved = false;
    for (int a = 0; a < np; ++a) {
      for (int b = a + 1; b < np; ++b) {
        const double before = rank_cost(a) + rank_cost(b);
        std::swap(slot_of[static_cast<std::size_t>(a)],
                  slot_of[static_cast<std::size_t>(b)]);
        const double after = rank_cost(a) + rank_cost(b);
        if (after + 1e-9 < before) {
          improved = true;
          ++result.swaps_applied;
        } else {
          std::swap(slot_of[static_cast<std::size_t>(a)],
                    slot_of[static_cast<std::size_t>(b)]);
        }
      }
    }
    if (!improved) break;
  }
  result.final_cost_ns = total_cost();
  result.permutation = slot_of;
  return result;
}

TEST(Reorder, MatchesTheDensePassBitForBit) {
  const DistanceModel model = DistanceModel::commodity();
  const std::vector<std::string> layouts = {"scbnh", "hcsbn", "nbsch", "csnh",
                                            "nhcL1L2L3Nsb"};
  const std::size_t passes[] = {1, 3, 8};
  std::size_t swaps = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SplitMix64 rng(seed);
    const Allocation alloc = test::random_allocation(rng);
    const int np = 2 + static_cast<int>(rng.next_below(95));
    const int degree =
        std::min(np - 1, 1 + static_cast<int>(rng.next_below(8)));
    const CommMatrix matrix = test::random_comm_matrix(np, degree, rng);
    const std::string& layout = layouts[rng.next_below(layouts.size())];
    const std::size_t max_passes = passes[rng.next_below(3)];
    const MappingResult mapping =
        lama_map(alloc, layout, {.np = static_cast<std::size_t>(np)});
    const std::string ctx = "seed=" + std::to_string(seed) +
                            " np=" + std::to_string(np) +
                            " degree=" + std::to_string(degree) + " " + layout;

    const ReorderResult want =
        dense_reference(alloc, mapping, matrix, model, max_passes);
    const ReorderResult got =
        reorder_ranks(alloc, mapping, matrix, model, max_passes);
    EXPECT_EQ(got.permutation, want.permutation) << ctx;
    EXPECT_EQ(got.swaps_applied, want.swaps_applied) << ctx;
    EXPECT_EQ(got.passes, want.passes) << ctx;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.initial_cost_ns),
              std::bit_cast<std::uint64_t>(want.initial_cost_ns))
        << ctx;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_cost_ns),
              std::bit_cast<std::uint64_t>(want.final_cost_ns))
        << ctx;
    swaps += want.swaps_applied;
  }
  EXPECT_GT(swaps, 0u);  // the cases exercise kept swaps, not only no-ops
}

}  // namespace
}  // namespace lama
