#include "lama/baselines.hpp"

#include <gtest/gtest.h>

#include "lama/mapper.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

Allocation small_cluster(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

TEST(BySlot, FillsNodeThenMovesOn) {
  const MappingResult m = map_by_slot(small_cluster(), {.np = 20});
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(m.node(r), 0u);
    EXPECT_EQ(m.representative_pu(r), r);
  }
  for (std::size_t r = 16; r < 20; ++r) EXPECT_EQ(m.node(r), 1u);
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(ByNode, RoundRobinsAcrossNodes) {
  const MappingResult m = map_by_node(small_cluster(3), {.np = 9});
  for (std::size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(m.node(r), r % 3);
    EXPECT_EQ(m.representative_pu(r), r / 3);
  }
}

TEST(Baselines, SkipOfflinePus) {
  Cluster c = Cluster::homogeneous(2, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.restrict_pus(Bitmap::parse("4-7"));
  const MappingResult slot = map_by_slot(alloc, {.np = 6});
  EXPECT_EQ(slot.representative_pu(0), 4u);
  EXPECT_EQ(slot.representative_pu(3), 7u);
  EXPECT_EQ(slot.node(4), 1u);

  const MappingResult node = map_by_node(alloc, {.np = 4});
  EXPECT_EQ(node.representative_pu(0), 4u);  // node0 first online
  EXPECT_EQ(node.representative_pu(1), 0u);  // node1
}

TEST(Baselines, OversubscriptionPolicy) {
  const Allocation alloc = small_cluster(1);
  EXPECT_THROW(map_by_slot(alloc, {.np = 17, .allow_oversubscribe = false}),
               OversubscribeError);
  EXPECT_THROW(map_by_node(alloc, {.np = 17, .allow_oversubscribe = false}),
               OversubscribeError);
  EXPECT_TRUE(map_by_slot(alloc, {.np = 17}).pu_oversubscribed);
  EXPECT_TRUE(map_by_node(alloc, {.np = 17}).pu_oversubscribed);
}

TEST(Baselines, ErrorsOnEmptyInput) {
  EXPECT_THROW(map_by_slot(Allocation{}, {.np = 2}), MappingError);
  EXPECT_THROW(map_by_node(small_cluster(), {.np = 0}), MappingError);
}

// The oracle property: the LAMA reproduces both classic patterns with the
// full pack/scatter layouts (this is what makes them "baselines" the
// algorithm subsumes).
TEST(Baselines, LamaFullPackEqualsBySlot) {
  for (std::size_t nodes : {1u, 2u, 3u}) {
    const Allocation alloc = small_cluster(nodes);
    const std::size_t np = nodes * 16;
    const MappingResult ours =
        lama_map(alloc, ProcessLayout::full_pack(), {.np = np});
    const MappingResult baseline = map_by_slot(alloc, {.np = np});
    ASSERT_EQ(ours.num_procs(), baseline.num_procs());
    for (std::size_t i = 0; i < np; ++i) {
      EXPECT_EQ(ours.node(i), baseline.node(i));
      EXPECT_EQ(ours.representative_pu(i),
                baseline.representative_pu(i));
    }
  }
}

TEST(Baselines, LamaFullScatterEqualsByNode) {
  for (std::size_t nodes : {1u, 2u, 4u}) {
    const Allocation alloc = small_cluster(nodes);
    const std::size_t np = nodes * 16;
    const MappingResult ours =
        lama_map(alloc, ProcessLayout::full_scatter(), {.np = np});
    const MappingResult baseline = map_by_node(alloc, {.np = np});
    for (std::size_t i = 0; i < np; ++i) {
      EXPECT_EQ(ours.node(i), baseline.node(i));
      EXPECT_EQ(ours.representative_pu(i),
                baseline.representative_pu(i));
    }
  }
}

TEST(Baselines, EquivalenceHoldsOnNumaCacheHardware) {
  const Allocation alloc = allocate_all(
      Cluster::homogeneous(2, "socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2"));
  const std::size_t np = 64;
  const MappingResult pack =
      lama_map(alloc, ProcessLayout::full_pack(), {.np = np});
  const MappingResult slot = map_by_slot(alloc, {.np = np});
  const MappingResult scatter =
      lama_map(alloc, ProcessLayout::full_scatter(), {.np = np});
  const MappingResult node = map_by_node(alloc, {.np = np});
  for (std::size_t i = 0; i < np; ++i) {
    EXPECT_EQ(pack.node(i), slot.node(i));
    EXPECT_EQ(pack.representative_pu(i),
              slot.representative_pu(i));
    EXPECT_EQ(scatter.node(i), node.node(i));
    EXPECT_EQ(scatter.representative_pu(i),
              node.representative_pu(i));
  }
}

}  // namespace
}  // namespace lama
