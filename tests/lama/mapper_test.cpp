#include "lama/mapper.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/maximal_tree.hpp"
#include "support/error.hpp"
#include "topo/presets.hpp"

namespace lama {
namespace {

using test::figure2_allocation;
using test::format_mapping_table;

std::string read_golden(const std::string& name) {
  const std::string path = std::string(LAMA_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// PU index on a figure2 node for (socket, node-wide core, thread).
std::size_t pu_of(std::size_t socket, std::size_t core_in_socket,
                  std::size_t thread) {
  return socket * 8 + core_in_socket * 2 + thread;
}

TEST(Mapper, Figure2ExactReproduction) {
  // The paper's Figure 2: 24 processes, layout "scbnh", two nodes of
  // 2 sockets x 4 cores x 2 threads. The figure shows, per (node, socket,
  // core, thread), which rank lands where.
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 24});

  ASSERT_EQ(m.num_procs(), 24u);
  for (std::size_t rank = 0; rank < 24; ++rank) {
    // Decoded from the figure: thread = rank/16, node = (rank%16)/8,
    // core = (rank%8)/2, socket = rank%2.
    const std::size_t h = rank / 16;
    const std::size_t n = (rank % 16) / 8;
    const std::size_t c = (rank % 8) / 2;
    const std::size_t s = rank % 2;
    EXPECT_EQ(m.node(rank), n) << "rank " << rank;
    ASSERT_EQ(m.pus(rank).count(), 1u) << "rank " << rank;
    EXPECT_EQ(m.representative_pu(rank), pu_of(s, c, h)) << "rank " << rank;
  }
  // Specific spot checks straight from the figure's drawing.
  EXPECT_EQ(m.representative_pu(0), pu_of(0, 0, 0));
  EXPECT_EQ(m.representative_pu(1), pu_of(1, 0, 0));
  EXPECT_EQ(m.representative_pu(6), pu_of(0, 3, 0));
  EXPECT_EQ(m.node(8), 1u);
  EXPECT_EQ(m.representative_pu(16), pu_of(0, 0, 1));
  EXPECT_EQ(m.representative_pu(23), pu_of(1, 3, 1));

  EXPECT_FALSE(m.pu_oversubscribed);
  EXPECT_FALSE(m.slot_oversubscribed);
  EXPECT_EQ(m.procs_per_node[0], 16u);
  EXPECT_EQ(m.procs_per_node[1], 8u);
}

// The Fig. 2 table is pinned to a committed golden file, for both the
// reference walk and the compiled kernel, so a simultaneous change to both
// cannot slip through their differential checks.
TEST(Mapper, GoldenFig2MatchesCommittedTable) {
  const MappingResult m = lama_map(figure2_allocation(), "scbnh", {.np = 24});
  EXPECT_EQ(format_mapping_table(m), read_golden("fig2_scbnh_np24.txt"));
}

TEST(Mapper, GoldenFig2CompiledMatchesCommittedTable) {
  const Allocation alloc = figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  const MappingResult m = lama_map_compiled(alloc, {.np = 24}, plan);
  EXPECT_EQ(format_mapping_table(m), read_golden("fig2_scbnh_np24.txt"));
}

TEST(Mapper, PackLayoutFillsDepthFirst) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 6});
  // h innermost: both threads of core 0, then core 1, ...
  EXPECT_EQ(m.representative_pu(0), 0u);
  EXPECT_EQ(m.representative_pu(1), 1u);
  EXPECT_EQ(m.representative_pu(2), 2u);
  EXPECT_EQ(m.representative_pu(5), 5u);
  for (std::size_t r = 0; r < m.num_procs(); ++r) EXPECT_EQ(m.node(r), 0u);
}

TEST(Mapper, NodeScatterLayout) {
  const Allocation alloc = figure2_allocation(4);
  const MappingResult m = lama_map(alloc, "nhcsb", {.np = 8});
  for (std::size_t rank = 0; rank < 8; ++rank) {
    EXPECT_EQ(m.node(rank), rank % 4);
    EXPECT_EQ(m.representative_pu(rank), rank / 4);
  }
}

TEST(Mapper, EveryRankMappedExactlyOnce) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 17});
  ASSERT_EQ(m.num_procs(), 17u);
  // The rank is the column index: each one names an allocated node and a
  // non-empty target.
  for (std::size_t i = 0; i < m.num_procs(); ++i) {
    EXPECT_LT(m.node(i), alloc.num_nodes()) << "rank " << i;
    EXPECT_FALSE(m.pus(i).empty()) << "rank " << i;
  }
}

TEST(Mapper, CoarserLayoutMapsToWiderTargets) {
  // Without 'h' in the layout, threads are pruned: targets are whole cores.
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbn", {.np = 4});
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_EQ(m.pus(r).count(), 2u);  // a full core (2 threads)
  }
  EXPECT_EQ(m.pus(0).to_string(), "0-1");
  EXPECT_EQ(m.pus(1).to_string(), "8-9");  // socket 1
}

TEST(Mapper, WraparoundSetsPuOversubscription) {
  const Allocation alloc = figure2_allocation(1);  // 16 PUs
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 20});
  EXPECT_EQ(m.num_procs(), 20u);
  EXPECT_EQ(m.sweeps, 2u);
  EXPECT_TRUE(m.pu_oversubscribed);
  // Ranks 16..19 wrap back onto PUs 0..3.
  EXPECT_EQ(m.representative_pu(16), 0u);
  EXPECT_EQ(m.representative_pu(19), 3u);
}

TEST(Mapper, ExactCapacityIsNotOversubscribed) {
  const Allocation alloc = figure2_allocation(1);
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 16});
  EXPECT_FALSE(m.pu_oversubscribed);
  EXPECT_EQ(m.sweeps, 1u);
}

TEST(Mapper, CorePrunedOversubscriptionCountsPuCapacity) {
  // Layout at core granularity on an SMT machine: two processes per core
  // still have two threads to use, so PUs are not oversubscribed until the
  // third process lands on a core.
  const Allocation alloc = figure2_allocation(1);
  EXPECT_FALSE(lama_map(alloc, "csbn", {.np = 16}).pu_oversubscribed);
  EXPECT_TRUE(lama_map(alloc, "csbn", {.np = 17}).pu_oversubscribed);
}

TEST(Mapper, DisallowedOversubscriptionThrows) {
  const Allocation alloc = figure2_allocation(1);
  EXPECT_THROW(
      lama_map(alloc, "hcsbn", {.np = 17, .allow_oversubscribe = false}),
      OversubscribeError);
  EXPECT_NO_THROW(
      lama_map(alloc, "hcsbn", {.np = 16, .allow_oversubscribe = false}));
}

TEST(Mapper, SlotOversubscriptionTracked) {
  const Cluster c = Cluster::homogeneous(2, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).slots = 2;
  alloc.mutable_node(1).slots = 2;
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 6});
  EXPECT_TRUE(m.slot_oversubscribed);   // 6 procs on node0's 2 slots
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(Mapper, SkipsDisabledResources) {
  // Disable socket 0 of node 0; the scbnh scatter must land only on the
  // remaining socket of node 0 and both sockets of node 1.
  const Cluster c = Cluster::homogeneous(2, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.set_object_disabled(ResourceType::kSocket, 0,
                                                 true);
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 24});
  EXPECT_EQ(m.num_procs(), 24u);
  EXPECT_GT(m.skipped, 0u);
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    if (m.node(r) == 0) {
      EXPECT_GE(m.representative_pu(r), 8u) << "rank " << r;
    }
  }
  // 24 processes on exactly 24 remaining online PUs: a perfect fit.
  EXPECT_FALSE(m.pu_oversubscribed);
  EXPECT_EQ(m.procs_per_node[0], 8u);
  EXPECT_EQ(m.procs_per_node[1], 16u);
}

TEST(Mapper, HeterogeneousClusterSkipsNonexistentCoordinates) {
  Cluster c;
  c.add_node(NodeTopology::synthetic("socket:2 core:4 pu:2", "big"));
  c.add_node(NodeTopology::synthetic("socket:2 core:2", "small"));
  const Allocation alloc = allocate_all(c);
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 20});
  EXPECT_EQ(m.num_procs(), 20u);
  EXPECT_GT(m.skipped, 0u);
  EXPECT_FALSE(m.pu_oversubscribed);  // capacity is exactly 16 + 4 = 20
  // The small node must never receive a rank beyond its 4 cores.
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    if (m.node(r) == 1) {
      EXPECT_LT(m.representative_pu(r), 4u);
    }
  }
  EXPECT_EQ(m.procs_per_node[0] + m.procs_per_node[1], 20u);
  EXPECT_EQ(m.procs_per_node[1], 4u);
}

TEST(Mapper, LayoutWithoutNodeLetterUsesOnlyFirstNode) {
  const Allocation alloc = figure2_allocation(3);
  const MappingResult m = lama_map(alloc, "hcs", {.np = 8});
  for (std::size_t r = 0; r < m.num_procs(); ++r) EXPECT_EQ(m.node(r), 0u);
}

TEST(Mapper, NodeOnlyLayoutTargetsWholeNodes) {
  const Allocation alloc = figure2_allocation(2);
  const MappingResult m = lama_map(alloc, "n", {.np = 4});
  EXPECT_EQ(m.node(0), 0u);
  EXPECT_EQ(m.node(1), 1u);
  EXPECT_EQ(m.node(2), 0u);
  EXPECT_EQ(m.pus(0).count(), 16u);
  EXPECT_FALSE(m.pu_oversubscribed);  // 2 procs per 16-PU node
}

TEST(Mapper, ErrorsOnBadInput) {
  const Allocation alloc = figure2_allocation();
  EXPECT_THROW(lama_map(alloc, "scbnh", {.np = 0}), MappingError);
  EXPECT_THROW(lama_map(Allocation{}, "scbnh", {.np = 4}), MappingError);
}

TEST(Mapper, FullyOfflinedAllocationThrows) {
  const Cluster c = Cluster::homogeneous(1, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.restrict_pus(Bitmap());
  EXPECT_THROW(lama_map(alloc, "scbnh", {.np = 2}), MappingError);
}

TEST(Mapper, VisitedCountsWork) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 24});
  EXPECT_EQ(m.visited, m.num_procs() + m.skipped);
}

TEST(Mapper, CacheLettersIterateCacheDomains) {
  // dual_socket_numa: 2 sockets x 2 numa x (l3) x 4 l2 x core x 2 pu.
  // Layout "L2Nsnch": scatter across L2 domains first.
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(1, "socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2"));
  const MappingResult m = lama_map(alloc, "L2Nsnch", {.np = 8});
  // First 4 ranks: L2 domains 0..3 of socket 0 numa 0? No — L2 innermost,
  // then N, then s: ranks cover all 16 L2 domains before reusing any.
  std::vector<std::size_t> reps;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    reps.push_back(m.representative_pu(r));
  }
  // Each L2 has 2 PUs; distinct L2 => representative PUs differ by >= 2.
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      EXPECT_NE(reps[i] / 2, reps[j] / 2) << i << "," << j;
    }
  }
}

TEST(Mapper, SharedTreeOverloadMatchesBuildingOne) {
  const Allocation alloc = figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree tree(alloc, layout);
  for (const std::size_t np : {1u, 8u, 24u, 40u}) {
    const MappingResult direct = lama_map(alloc, layout, {.np = np});
    const MappingResult shared = lama_map(alloc, layout, {.np = np}, tree);
    ASSERT_EQ(shared.num_procs(), direct.num_procs());
    EXPECT_EQ(shared.sweeps, direct.sweeps);
    for (std::size_t i = 0; i < np; ++i) {
      EXPECT_EQ(shared.pus(i).to_string(), direct.pus(i).to_string());
      EXPECT_EQ(test::coord_vector(shared, i), test::coord_vector(direct, i));
    }
  }
}

TEST(Mapper, SharedTreeIsSafeForConcurrentMaps) {
  // The const-correctness contract behind the service's tree cache: many
  // mapping runs may read one maximal tree at once.
  const Allocation alloc = figure2_allocation(4);
  const ProcessLayout layout = ProcessLayout::parse("chsnb");
  const MaximalTree tree(alloc, layout);
  const MappingResult want = lama_map(alloc, layout, {.np = 17}, tree);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        const MappingResult got = lama_map(alloc, layout, {.np = 17}, tree);
        for (std::size_t i = 0; i < want.num_procs(); ++i) {
          if (got.pus(i).to_string() != want.pus(i).to_string()) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lama
