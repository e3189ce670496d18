#include "net/xyzt.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/error.hpp"

namespace lama {
namespace {

Allocation torus_alloc(const TorusNetwork& net, const char* desc) {
  return allocate_all(Cluster::homogeneous(net.num_nodes(), desc));
}

TEST(Xyzt, XyztOrderWalksXFirst) {
  const TorusNetwork net(4, 2, 1);
  const Allocation alloc = torus_alloc(net, "socket:1 core:2");
  const MappingResult m = map_xyzt(alloc, net, "XYZT", {.np = 8});
  // X fastest: ranks 0..3 along x at y=0, then 4..7 at y=1; all on T=0.
  for (std::size_t r = 0; r < 8; ++r) {
    const TorusCoord c = net.coord_of(m.node(r));
    EXPECT_EQ(c.x, static_cast<int>(r % 4));
    EXPECT_EQ(c.y, static_cast<int>(r / 4));
    EXPECT_EQ(m.representative_pu(r), 0u);
  }
}

TEST(Xyzt, TxyzOrderFillsNodeFirst) {
  const TorusNetwork net(2, 2, 1);
  const Allocation alloc = torus_alloc(net, "socket:1 core:4");
  const MappingResult m = map_xyzt(alloc, net, "TXYZ", {.np = 8});
  // T fastest: ranks 0..3 fill node (0,0,0), ranks 4..7 fill (1,0,0).
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(m.node(r), 0u);
    EXPECT_EQ(m.representative_pu(r), r);
  }
  for (std::size_t r = 4; r < 8; ++r) EXPECT_EQ(m.node(r), 1u);
}

TEST(Xyzt, OrderIsCaseInsensitiveAndValidated) {
  const TorusNetwork net(2, 1, 1);
  const Allocation alloc = torus_alloc(net, "socket:1 core:2");
  EXPECT_NO_THROW(map_xyzt(alloc, net, "tzxy", {.np = 2}));
  EXPECT_THROW(map_xyzt(alloc, net, "XYZ", {.np = 2}), ParseError);
  EXPECT_THROW(map_xyzt(alloc, net, "XXYZ", {.np = 2}), ParseError);
  EXPECT_THROW(map_xyzt(alloc, net, "XYZW", {.np = 2}), ParseError);
}

TEST(Xyzt, EveryPermutationCoversAllPusOnce) {
  const TorusNetwork net(2, 2, 2);
  const Allocation alloc = torus_alloc(net, "socket:2 core:2");
  const std::size_t capacity = 8 * 4;
  const char* orders[] = {"XYZT", "TXYZ", "YXTZ", "TZXY", "ZYXT", "XTYZ"};
  for (const char* order : orders) {
    const MappingResult m = map_xyzt(alloc, net, order, {.np = capacity});
    std::set<std::pair<std::size_t, std::size_t>> used;
    for (std::size_t r = 0; r < m.num_procs(); ++r) {
      EXPECT_TRUE(used.insert({m.node(r), m.representative_pu(r)}).second)
          << order;
    }
    EXPECT_EQ(used.size(), capacity) << order;
    EXPECT_FALSE(m.pu_oversubscribed) << order;
  }
}

TEST(Xyzt, HeterogeneousTWidthSkips) {
  const TorusNetwork net(2, 1, 1);
  Cluster c;
  c.add_node(NodeTopology::synthetic("socket:1 core:4", "fat"));
  c.add_node(NodeTopology::synthetic("socket:1 core:2", "thin"));
  const Allocation alloc = allocate_all(c);
  const MappingResult m = map_xyzt(alloc, net, "XTYZ", {.np = 6});
  EXPECT_EQ(m.num_procs(), 6u);
  EXPECT_GT(m.skipped, 0u);
  EXPECT_EQ(m.procs_per_node[0], 4u);
  EXPECT_EQ(m.procs_per_node[1], 2u);
}

TEST(Xyzt, RespectsRestrictions) {
  const TorusNetwork net(2, 1, 1);
  Allocation alloc = torus_alloc(net, "socket:2 core:2");
  alloc.mutable_node(0).topo.restrict_pus(Bitmap::parse("2-3"));
  const MappingResult m = map_xyzt(alloc, net, "TXYZ", {.np = 4});
  EXPECT_EQ(m.representative_pu(0), 2u);
  EXPECT_EQ(m.representative_pu(1), 3u);
  EXPECT_EQ(m.node(2), 1u);
}

TEST(Xyzt, OversubscriptionPolicyAndWraparound) {
  const TorusNetwork net(2, 1, 1);
  const Allocation alloc = torus_alloc(net, "socket:1 core:2");
  const MappingResult m = map_xyzt(alloc, net, "XYZT", {.np = 6});
  EXPECT_TRUE(m.pu_oversubscribed);
  EXPECT_EQ(m.sweeps, 2u);
  EXPECT_THROW(
      map_xyzt(alloc, net, "XYZT", {.np = 6, .allow_oversubscribe = false}),
      OversubscribeError);
}

TEST(Xyzt, SizeMismatchThrows) {
  const TorusNetwork net(2, 2, 1);
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(3, "socket:1 core:2"));
  EXPECT_THROW(map_xyzt(alloc, net, "XYZT", {.np = 2}), MappingError);
}

}  // namespace
}  // namespace lama
