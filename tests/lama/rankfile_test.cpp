#include "lama/rankfile.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace lama {
namespace {

Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

TEST(Rankfile, BasicSocketCoreSyntax) {
  const Allocation alloc = figure2_allocation();
  const RankfilePlacement rf = parse_rankfile(alloc,
                                              "rank 0=node0 slot=1:0-1\n"
                                              "rank 1=node1 slot=0:0\n"
                                              "rank 2=node0 slot=0:2,3\n");
  ASSERT_EQ(rf.entries.size(), 3u);
  // socket 1 cores 0-1 -> PUs 8-11.
  EXPECT_EQ(rf.entries[0].cpuset.to_string(), "8-11");
  EXPECT_EQ(rf.entries[0].node, 0u);
  // node1 socket 0 core 0 -> PUs 0-1.
  EXPECT_EQ(rf.entries[1].cpuset.to_string(), "0-1");
  EXPECT_EQ(rf.entries[1].node, 1u);
  // socket 0 cores 2,3 -> PUs 4-7.
  EXPECT_EQ(rf.entries[2].cpuset.to_string(), "4-7");
}

TEST(Rankfile, AbsolutePuSyntax) {
  const Allocation alloc = figure2_allocation();
  const RankfilePlacement rf = parse_rankfile(alloc,
                                              "rank 0=node0 slot=3\n"
                                              "rank 1=node0 slot=4,6-7\n");
  EXPECT_EQ(rf.entries[0].cpuset.to_string(), "3");
  EXPECT_EQ(rf.entries[1].cpuset.to_string(), "4,6-7");
}

TEST(Rankfile, CommentsAndOutOfOrderRanks) {
  const Allocation alloc = figure2_allocation();
  const RankfilePlacement rf = parse_rankfile(alloc,
                                              "# irregular layout\n"
                                              "rank 1=node1 slot=0\n"
                                              "\n"
                                              "rank 0=node0 slot=0 # first\n");
  EXPECT_EQ(rf.entries[0].rank, 0);
  EXPECT_EQ(rf.entries[0].node_name, "node0");
  EXPECT_EQ(rf.entries[1].rank, 1);
}

TEST(Rankfile, ProducesMappingAndBinding) {
  const Allocation alloc = figure2_allocation();
  const RankfilePlacement rf = parse_rankfile(alloc,
                                              "rank 0=node0 slot=0:0-3\n"
                                              "rank 1=node1 slot=1:0-3\n");
  EXPECT_EQ(rf.mapping.num_procs(), 2u);
  EXPECT_EQ(rf.binding.bindings.size(), 2u);
  EXPECT_EQ(rf.binding.bindings[0].width, 8u);  // whole socket
  EXPECT_EQ(rf.mapping.procs_per_node[0], 1u);
  EXPECT_EQ(rf.mapping.procs_per_node[1], 1u);
  EXPECT_FALSE(rf.mapping.pu_oversubscribed);
  EXPECT_FALSE(rf.binding.overloaded);
}

TEST(Rankfile, DetectsPuConflicts) {
  const Allocation alloc = figure2_allocation();
  const RankfilePlacement rf = parse_rankfile(alloc,
                                              "rank 0=node0 slot=0-3\n"
                                              "rank 1=node0 slot=2-5\n");
  EXPECT_TRUE(rf.mapping.pu_oversubscribed);
  EXPECT_TRUE(rf.binding.overloaded);
}

TEST(Rankfile, SyntaxErrors) {
  const Allocation alloc = figure2_allocation();
  EXPECT_THROW(parse_rankfile(alloc, ""), ParseError);
  EXPECT_THROW(parse_rankfile(alloc, "bogus 0=node0 slot=0\n"), ParseError);
  EXPECT_THROW(parse_rankfile(alloc, "rank 0 node0 slot=0\n"), ParseError);
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=node0\n"), ParseError);
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=node0 slots=0\n"), ParseError);
  EXPECT_THROW(parse_rankfile(alloc, "rank x=node0 slot=0\n"), ParseError);
}

TEST(Rankfile, ValidationErrors) {
  const Allocation alloc = figure2_allocation();
  // Unknown node.
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=ghost slot=0\n"), MappingError);
  // PU out of range.
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=node0 slot=99\n"), MappingError);
  // Socket out of range.
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=node0 slot=7:0\n"),
               MappingError);
  // Core out of range within socket.
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=node0 slot=0:9\n"),
               MappingError);
  // Duplicate rank.
  EXPECT_THROW(parse_rankfile(alloc,
                              "rank 0=node0 slot=0\n"
                              "rank 0=node1 slot=0\n"),
               MappingError);
  // Gap in ranks.
  EXPECT_THROW(parse_rankfile(alloc,
                              "rank 0=node0 slot=0\n"
                              "rank 2=node1 slot=0\n"),
               MappingError);
}

TEST(Rankfile, RejectsOfflinePus) {
  Cluster c = Cluster::homogeneous(1, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.restrict_pus(Bitmap::parse("0-7"));
  EXPECT_THROW(parse_rankfile(alloc, "rank 0=node0 slot=8\n"), MappingError);
  EXPECT_NO_THROW(parse_rankfile(alloc, "rank 0=node0 slot=7\n"));
}

TEST(Rankfile, NodeWithoutCoresRejectsSocketSyntax) {
  Cluster c;
  c.add_node(NodeTopology::synthetic("socket:2 numa:1 l3:1 l2:1 l1:1 core:4",
                                     "ok"));
  Allocation alloc = allocate_all(c);
  EXPECT_NO_THROW(parse_rankfile(alloc, "rank 0=ok slot=1:0\n"));
}

}  // namespace
}  // namespace lama
