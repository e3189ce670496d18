#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "lama/mapper.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

Cluster figure2_cluster(std::size_t nodes = 2) {
  return Cluster::homogeneous(nodes, "socket:2 core:4 pu:2");
}

TEST(Scheduler, BlockDistributionFillsNodes) {
  const Cluster c = figure2_cluster();
  Scheduler sched(c);
  const int id = sched.submit({.name = "a", .pus = 20});
  ASSERT_EQ(sched.schedule(), std::vector<int>{id});
  const SchedJob& job = sched.job(id);
  ASSERT_EQ(job.grants.size(), 2u);
  EXPECT_EQ(job.grants[0].second.to_string(), "0-15");  // node0 full
  EXPECT_EQ(job.grants[1].second.to_string(), "0-3");   // node1 partial
  EXPECT_EQ(sched.free_pus(0), 0u);
  EXPECT_EQ(sched.free_pus(1), 12u);
}

TEST(Scheduler, CyclicDistributionAlternates) {
  const Cluster c = figure2_cluster();
  Scheduler sched(c);
  const int id = sched.submit(
      {.name = "a", .pus = 6, .distribution = SchedDistribution::kCyclic});
  sched.schedule();
  const SchedJob& job = sched.job(id);
  ASSERT_EQ(job.grants.size(), 2u);
  EXPECT_EQ(job.grants[0].second.to_string(), "0-2");
  EXPECT_EQ(job.grants[1].second.to_string(), "0-2");
}

TEST(Scheduler, PlaneDistribution) {
  const Cluster c = figure2_cluster();
  Scheduler sched(c);
  const int id = sched.submit({.name = "a",
                               .pus = 12,
                               .distribution = SchedDistribution::kPlane,
                               .plane_size = 4});
  sched.schedule();
  const SchedJob& job = sched.job(id);
  // Rounds of 4: node0 gets 0-3, node1 0-3, node0 4-7.
  EXPECT_EQ(job.grants[0].second.to_string(), "0-7");
  EXPECT_EQ(job.grants[1].second.to_string(), "0-3");
}

TEST(Scheduler, ExclusiveTakesWholeNodes) {
  const Cluster c = figure2_cluster(3);
  Scheduler sched(c);
  const int small = sched.submit({.name = "small", .pus = 2});
  sched.schedule();
  const int excl = sched.submit({.name = "excl", .pus = 20, .exclusive = true});
  sched.schedule();
  const SchedJob& job = sched.job(excl);
  ASSERT_EQ(job.state, SchedJobState::kRunning);
  // Node0 is partially used by `small`, so the exclusive job takes nodes 1+2.
  ASSERT_EQ(job.grants.size(), 2u);
  EXPECT_EQ(job.grants[0].first, 1u);
  EXPECT_EQ(job.grants[1].first, 2u);
  EXPECT_EQ(job.grants[0].second.count(), 16u);
  (void)small;
}

TEST(Scheduler, FifoQueueingAndCompletion) {
  const Cluster c = figure2_cluster(1);  // 16 PUs
  Scheduler sched(c);
  const int a = sched.submit({.name = "a", .pus = 12});
  const int b = sched.submit({.name = "b", .pus = 12});
  EXPECT_EQ(sched.schedule(), std::vector<int>{a});
  EXPECT_EQ(sched.job(b).state, SchedJobState::kQueued);
  EXPECT_TRUE(sched.schedule().empty());  // still blocked
  sched.complete(a);
  EXPECT_EQ(sched.total_free_pus(), 16u);
  EXPECT_EQ(sched.schedule(), std::vector<int>{b});
}

TEST(Scheduler, BackfillStartsSmallJobsBehindBlockedHead) {
  const Cluster c = figure2_cluster(1);
  Scheduler sched(c);
  const int a = sched.submit({.name = "a", .pus = 10});
  const int big = sched.submit({.name = "big", .pus = 16});
  const int tiny = sched.submit({.name = "tiny", .pus = 4});
  EXPECT_EQ(sched.schedule(), std::vector<int>{a});
  // FIFO: tiny must wait behind big.
  EXPECT_TRUE(sched.schedule(false).empty());
  // Backfill: tiny fits in the leftover 6 PUs.
  EXPECT_EQ(sched.schedule(true), std::vector<int>{tiny});
  EXPECT_EQ(sched.job(big).state, SchedJobState::kQueued);
}

TEST(Scheduler, AllocationForRunningJobRestrictsPus) {
  const Cluster c = figure2_cluster();
  Scheduler sched(c);
  const int a = sched.submit({.name = "a", .pus = 4});
  const int b = sched.submit(
      {.name = "b", .pus = 8, .distribution = SchedDistribution::kCyclic});
  sched.schedule();
  const Allocation alloc_b = sched.allocation_for(b);
  // Job a holds PUs 0-3 of node0; b's cyclic grant starts after them.
  EXPECT_EQ(alloc_b.num_nodes(), 2u);
  EXPECT_EQ(alloc_b.node(0).topo.online_pus().to_string(), "4-7");
  EXPECT_EQ(alloc_b.node(1).topo.online_pus().to_string(), "0-3");
  (void)a;
}

TEST(Scheduler, SchedulerFeedsTheMapper) {
  // The full §III pipeline: scheduler grants -> allocation -> LAMA maps
  // inside it, never touching another job's PUs.
  const Cluster c = figure2_cluster();
  Scheduler sched(c);
  sched.submit({.name = "other", .pus = 8});
  const int mine = sched.submit({.name = "mine", .pus = 16});
  sched.schedule();
  const Allocation alloc = sched.allocation_for(mine);
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 16});
  EXPECT_EQ(m.num_procs(), 16u);
  const SchedJob& other = sched.job(1);
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    // Node-local index of the allocation matches cluster node index here.
    const std::size_t node = alloc.node(m.node(r)).cluster_index;
    for (const auto& [gnode, pus] : other.grants) {
      if (gnode == node) {
        EXPECT_FALSE(m.pus(r).intersects(pus));
      }
    }
  }
}

TEST(Scheduler, SubmitValidation) {
  const Cluster c = figure2_cluster(1);
  Scheduler sched(c);
  EXPECT_THROW(sched.submit({.name = "zero", .pus = 0}), MappingError);
  EXPECT_THROW(sched.submit({.name = "huge", .pus = 17}), MappingError);
  EXPECT_THROW(sched.submit({.name = "plane0",
                             .pus = 2,
                             .distribution = SchedDistribution::kPlane,
                             .plane_size = 0}),
               MappingError);
}

TEST(Scheduler, CompleteValidation) {
  const Cluster c = figure2_cluster(1);
  Scheduler sched(c);
  const int a = sched.submit({.name = "a", .pus = 2});
  EXPECT_THROW(sched.complete(a), MappingError);  // not running yet
  EXPECT_THROW(sched.complete(999), MappingError);
  sched.schedule();
  sched.complete(a);
  EXPECT_THROW(sched.complete(a), MappingError);  // already done
  EXPECT_THROW(sched.allocation_for(a), MappingError);
}

TEST(Scheduler, QueuedIds) {
  const Cluster c = figure2_cluster(1);
  Scheduler sched(c);
  const int a = sched.submit({.name = "a", .pus = 16});
  const int b = sched.submit({.name = "b", .pus = 16});
  EXPECT_EQ(sched.queued_ids(), (std::vector<int>{a, b}));
  sched.schedule();
  EXPECT_EQ(sched.queued_ids(), std::vector<int>{b});
}

}  // namespace
}  // namespace lama
