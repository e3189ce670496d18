// Multi-PU processes (§III-A): "the mapping agent needs to be able to assign
// multiple processing resources to each process."
#include <gtest/gtest.h>

#include <set>

#include "common/fixtures.hpp"
#include "lama/baselines.hpp"
#include "lama/binding.hpp"
#include "lama/mapper.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

using test::figure2_allocation;

TEST(MultiPu, TwoThreadsPerProcessPacksWholeCores) {
  const MappingResult m =
      lama_map(figure2_allocation(1), "hcsbn", {.np = 8, .pus_per_proc = 2});
  ASSERT_EQ(m.num_procs(), 8u);
  for (std::size_t r = 0; r < 8; ++r) {
    // Rank r owns both threads of core r.
    EXPECT_EQ(m.pus(r).count(), 2u);
    EXPECT_EQ(m.pus(r).first(), r * 2);
  }
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(MultiPu, FourPusPerProcess) {
  const MappingResult m =
      lama_map(figure2_allocation(1), "hcsbn", {.np = 4, .pus_per_proc = 4});
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(m.pus(r).count(), 4u);
    EXPECT_EQ(m.pus(r).first(), r * 4);
  }
}

TEST(MultiPu, ProcessesNeverSpanNodes) {
  // 3 PUs per process on 16-PU nodes: the 6th process would need PU 15 of
  // node 0 plus PUs of node 1 — it must instead restart on node 1, leaving
  // node 0's last PU idle.
  const MappingResult m =
      lama_map(figure2_allocation(2), "hcsbn", {.np = 6, .pus_per_proc = 3});
  ASSERT_EQ(m.num_procs(), 6u);
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_EQ(m.pus(r).count(), 3u);
  }
  // First five on node 0 (PUs 0-14), sixth restarts on node 1.
  EXPECT_EQ(m.node(4), 0u);
  EXPECT_EQ(m.pus(4).to_string(), "12-14");
  EXPECT_EQ(m.node(5), 1u);
  EXPECT_EQ(m.pus(5).to_string(), "0-2");
}

TEST(MultiPu, TargetsAreDisjointUpToCapacity) {
  const MappingResult m =
      lama_map(figure2_allocation(2), "hcsbn", {.np = 8, .pus_per_proc = 4});
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    for (std::size_t pu : m.pus(r).to_vector()) {
      EXPECT_TRUE(used.insert({m.node(r), pu}).second);
    }
  }
  EXPECT_EQ(used.size(), 32u);
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(MultiPu, ScatterLayoutGathersWithinNode) {
  // With the node letter innermost, consecutive processes alternate nodes,
  // and each process still gathers its PUs from a single node.
  const MappingResult m =
      lama_map(figure2_allocation(2), "nhcsb", {.np = 4, .pus_per_proc = 2});
  EXPECT_EQ(m.node(0), 0u);
  EXPECT_EQ(m.node(1), 1u);
  // Under "nhcsb" the iteration alternates node every target, so a 2-PU
  // process must abandon partial accumulations repeatedly; it still succeeds
  // by pairing targets per node.
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_EQ(m.pus(r).count(), 2u);
  }
}

TEST(MultiPu, OversubscriptionAccountsPerPu) {
  // 16 PUs; 5 procs x 4 PUs = 20 demands -> second sweep reuses targets.
  const MappingResult m =
      lama_map(figure2_allocation(1), "hcsbn", {.np = 5, .pus_per_proc = 4});
  EXPECT_TRUE(m.pu_oversubscribed);
  EXPECT_EQ(m.sweeps, 2u);
  // The policy knob blocks it.
  EXPECT_THROW(lama_map(figure2_allocation(1), "hcsbn",
                        {.np = 5,
                         .allow_oversubscribe = false,
                         .pus_per_proc = 4}),
               OversubscribeError);
}

TEST(MultiPu, ZeroPusPerProcThrows) {
  EXPECT_THROW(
      lama_map(figure2_allocation(1), "hcsbn", {.np = 2, .pus_per_proc = 0}),
      MappingError);
}

TEST(MultiPu, ProcessLargerThanAnyNodeThrows) {
  EXPECT_THROW(
      lama_map(figure2_allocation(2), "hcsbn", {.np = 1, .pus_per_proc = 17}),
      MappingError);
}

TEST(MultiPu, BySlotBaselineGroupsPus) {
  const MappingResult m =
      map_by_slot(figure2_allocation(2), {.np = 10, .pus_per_proc = 3});
  // 16 PUs per node / 3 = 5 groups per node; ranks 0-4 on node0, 5-9 node1.
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(m.node(r), r / 5);
    EXPECT_EQ(m.pus(r).count(), 3u);
    EXPECT_EQ(m.pus(r).first(), (r % 5) * 3);
  }
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(MultiPu, ByNodeBaselineGroupsPus) {
  const MappingResult m =
      map_by_node(figure2_allocation(2), {.np = 4, .pus_per_proc = 8});
  EXPECT_EQ(m.node(0), 0u);
  EXPECT_EQ(m.pus(0).to_string(), "0-7");
  EXPECT_EQ(m.node(1), 1u);
  EXPECT_EQ(m.pus(2).to_string(), "8-15");
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(MultiPu, BaselineOversubscriptionScalesWithPus) {
  const Allocation alloc = figure2_allocation(1);
  EXPECT_TRUE(
      map_by_slot(alloc, {.np = 3, .pus_per_proc = 8}).pu_oversubscribed);
  EXPECT_THROW(map_by_slot(alloc, {.np = 3,
                                   .allow_oversubscribe = false,
                                   .pus_per_proc = 8}),
               OversubscribeError);
  EXPECT_THROW(map_by_node(alloc, {.np = 1, .pus_per_proc = 17}),
               MappingError);
}

TEST(MultiPu, BindingCoversAllTargetPus) {
  const Allocation alloc = figure2_allocation(1);
  const MappingResult m =
      lama_map(alloc, "hcsbn", {.np = 4, .pus_per_proc = 4});
  // Bind to L-free machine: use core target; representative PU anchors the
  // core, widening with width=2 covers the process's 4 PUs.
  const BindingResult b = bind_processes(
      alloc, m, {.target = BindTarget::kCore, .width = 2});
  for (std::size_t i = 0; i < b.bindings.size(); ++i) {
    EXPECT_EQ(b.bindings[i].cpuset, Bitmap(m.pus(i)));
  }
}

}  // namespace
}  // namespace lama
