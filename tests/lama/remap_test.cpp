// Unit suite for fault-aware remapping (lama/remap.hpp): survivors never
// move, displaced ranks land exactly where a fresh map over the reduced
// allocation would put them, and the degenerate cases (nothing failed,
// everything failed, no capacity left) behave per the header contract.
#include <gtest/gtest.h>

#include <set>

#include "lama/remap.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

Allocation two_node_alloc() {
  return allocate_all(Cluster::homogeneous(2, "socket:2 core:2 pu:2"));
}

void kill_node(Allocation& alloc, std::size_t node) {
  alloc.mutable_node(node).topo.set_object_disabled(ResourceType::kNode, 0,
                                                    true);
}

TEST(RemapTest, NoFailuresKeepsEveryPlacement) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  const MapOptions opts{.np = 8};
  const MappingResult previous = lama_map(alloc, layout, opts);

  const RemapResult r = lama_remap(alloc, layout, opts, previous);
  EXPECT_FALSE(r.any_displaced());
  EXPECT_EQ(r.surviving, 8u);
  EXPECT_FALSE(r.degraded_shared);
  ASSERT_EQ(r.mapping.num_procs(), previous.num_procs());
  for (std::size_t i = 0; i < previous.num_procs(); ++i) {
    EXPECT_EQ(r.mapping.node(i), previous.node(i));
    EXPECT_EQ(r.mapping.pus(i).to_string(), previous.pus(i).to_string());
  }
}

TEST(RemapTest, NodeDeathDisplacesOnlyItsRanks) {
  const Allocation alloc = two_node_alloc();
  // "nsch" round-robins nodes: even ranks on node 0, odd ranks on node 1.
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  const MapOptions opts{.np = 8};
  const MappingResult previous = lama_map(alloc, layout, opts);

  Allocation reduced = alloc;
  kill_node(reduced, 1);
  const RemapResult r = lama_remap(reduced, layout, opts, previous);

  EXPECT_EQ(r.surviving, 4u);
  ASSERT_EQ(r.displaced.size(), 4u);
  for (const int rank : r.displaced) EXPECT_EQ(rank % 2, 1) << rank;
  EXPECT_FALSE(r.degraded_shared);

  // Survivors are verbatim; displaced ranks landed on node 0's free PUs,
  // and nobody shares a PU.
  std::set<std::size_t> used;
  for (std::size_t i = 0; i < r.mapping.num_procs(); ++i) {
    EXPECT_EQ(r.mapping.node(i), 0u) << "rank " << i;
    if (i % 2 == 0) {
      EXPECT_EQ(r.mapping.pus(i).to_string(), previous.pus(i).to_string());
    }
    EXPECT_TRUE(used.insert(r.mapping.representative_pu(i)).second)
        << "rank " << i;
  }
  EXPECT_FALSE(r.mapping.pu_oversubscribed);
  EXPECT_EQ(r.mapping.procs_per_node[0], 8u);
  EXPECT_EQ(r.mapping.procs_per_node[1], 0u);
}

TEST(RemapTest, PuFailureDisplacesExactlyTheAffectedRank) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("hcsn");
  const MapOptions opts{.np = 6};
  const MappingResult previous = lama_map(alloc, layout, opts);

  // Off-line exactly the PU rank 2 sits on.
  Allocation reduced = alloc;
  Bitmap allowed = reduced.node(previous.node(2)).topo.online_pus();
  allowed.and_not(previous.pus(2));
  reduced.mutable_node(previous.node(2)).topo.restrict_pus(allowed);

  const RemapResult r = lama_remap(reduced, layout, opts, previous);
  ASSERT_EQ(r.displaced, std::vector<int>{2});
  EXPECT_EQ(r.surviving, 5u);
  // The displaced rank moved somewhere online and unshared.
  EXPECT_TRUE(r.mapping.pus(2).is_subset_of(
      reduced.node(r.mapping.node(2)).topo.online_pus()));
  EXPECT_FALSE(r.mapping.pu_oversubscribed);
  for (std::size_t i = 0; i < r.mapping.num_procs(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(r.mapping.pus(i).to_string(), previous.pus(i).to_string());
  }
}

TEST(RemapTest, AllDisplacedEqualsFreshMapOverReducedAllocation) {
  const Allocation alloc = two_node_alloc();
  // "hcsn" fills node 0 completely before touching node 1.
  const ProcessLayout layout = ProcessLayout::parse("hcsn");
  const MapOptions opts{.np = 8};
  const MappingResult previous = lama_map(alloc, layout, opts);
  for (std::size_t r = 0; r < previous.num_procs(); ++r) {
    ASSERT_EQ(previous.node(r), 0u);
  }

  Allocation reduced = alloc;
  kill_node(reduced, 0);
  const RemapResult r = lama_remap(reduced, layout, opts, previous);
  EXPECT_EQ(r.surviving, 0u);
  ASSERT_EQ(r.displaced.size(), 8u);

  const MappingResult fresh = lama_map(reduced, layout, opts);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(r.mapping.node(i), fresh.node(i));
    EXPECT_EQ(r.mapping.pus(i).to_string(), fresh.pus(i).to_string());
  }
}

TEST(RemapTest, RefusesToShareWithoutOversubscription) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  MapOptions opts{.np = 16};  // every PU of both nodes taken
  opts.allow_oversubscribe = false;
  const MappingResult previous = lama_map(alloc, layout, opts);

  Allocation reduced = alloc;
  kill_node(reduced, 1);
  EXPECT_THROW(lama_remap(reduced, layout, opts, previous),
               OversubscribeError);
}

TEST(RemapTest, SharesPusWhenOversubscriptionAllowed) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  MapOptions opts{.np = 16};
  opts.allow_oversubscribe = true;
  const MappingResult previous = lama_map(alloc, layout, opts);

  Allocation reduced = alloc;
  kill_node(reduced, 1);
  const RemapResult r = lama_remap(reduced, layout, opts, previous);
  EXPECT_TRUE(r.degraded_shared);
  EXPECT_EQ(r.surviving, 8u);
  EXPECT_EQ(r.displaced.size(), 8u);
  EXPECT_TRUE(r.mapping.pu_oversubscribed);
  for (std::size_t rank = 0; rank < r.mapping.num_procs(); ++rank) {
    EXPECT_EQ(r.mapping.node(rank), 0u);
    EXPECT_TRUE(r.mapping.pus(rank).is_subset_of(
        reduced.node(0).topo.online_pus()));
  }
}

TEST(RemapTest, RejectsMismatchedProcessCount) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  const MappingResult previous = lama_map(alloc, layout, {.np = 8});
  EXPECT_THROW(lama_remap(alloc, layout, {.np = 4}, previous), MappingError);
}

TEST(RemapTest, RejectsChangedNodeList) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  const MappingResult previous = lama_map(alloc, layout, {.np = 8});
  const Allocation one_node =
      allocate_all(Cluster::homogeneous(1, "socket:2 core:2 pu:2"));
  EXPECT_THROW(lama_remap(one_node, layout, {.np = 8}, previous),
               MappingError);
}

TEST(RemapTest, RejectsFullyOfflineAllocation) {
  const Allocation alloc = two_node_alloc();
  const ProcessLayout layout = ProcessLayout::parse("nsch");
  const MappingResult previous = lama_map(alloc, layout, {.np = 8});
  Allocation reduced = alloc;
  kill_node(reduced, 0);
  kill_node(reduced, 1);
  EXPECT_THROW(lama_remap(reduced, layout, {.np = 8}, previous),
               MappingError);
}

}  // namespace
}  // namespace lama
