#include "rte/runtime.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace lama {
namespace {

Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

TEST(Runtime, PlanJobEndToEndLevel3) {
  const Allocation alloc = figure2_allocation();
  const JobSpec job{.np = 24};
  const LaunchPlan plan = plan_job(
      alloc, job, {"--map-by", "lama:scbnh", "--bind-to", "core"});
  EXPECT_EQ(plan.procs().size(), 24u);
  EXPECT_EQ(plan.mapping().layout, "scbnh");
  EXPECT_EQ(plan.binding().target, BindTarget::kCore);
  EXPECT_EQ(plan.procs_on_node(0).size(), 16u);
  EXPECT_EQ(plan.procs_on_node(1).size(), 8u);
  for (const LaunchedProcess& p : plan.procs()) {
    EXPECT_EQ(p.binding_width, 2u);
    EXPECT_EQ(p.state, ProcState::kPlanned);
  }
}

TEST(Runtime, LaunchEnforcesAndRuns) {
  const Allocation alloc = figure2_allocation();
  LaunchPlan plan =
      plan_job(alloc, JobSpec{.np = 4}, {"--by-socket", "--bind-to-socket"});
  plan.launch(alloc);
  for (const LaunchedProcess& p : plan.procs()) {
    EXPECT_EQ(p.state, ProcState::kRunning);
  }
}

TEST(Runtime, LaunchRejectsStaleBindings) {
  const Allocation alloc = figure2_allocation();
  LaunchPlan plan =
      plan_job(alloc, JobSpec{.np = 4}, {"--by-socket", "--bind-to-core"});
  // Simulate the OS off-lining a core between planning and launch.
  Allocation changed = alloc;
  changed.mutable_node(0).topo.restrict_pus(Bitmap::parse("2-15"));
  EXPECT_THROW(plan.launch(changed), MappingError);
}

TEST(Runtime, NpFromJobWinsOverCli) {
  const Allocation alloc = figure2_allocation();
  const LaunchPlan plan = plan_job(alloc, JobSpec{.np = 4}, {"-np", "2"});
  EXPECT_EQ(plan.procs().size(), 4u);
}

TEST(Runtime, NpFromCliWhenJobOmitsIt) {
  const Allocation alloc = figure2_allocation();
  const LaunchPlan plan = plan_job(alloc, JobSpec{}, {"-np", "6"});
  EXPECT_EQ(plan.procs().size(), 6u);
}

TEST(Runtime, MissingNpThrows) {
  const Allocation alloc = figure2_allocation();
  EXPECT_THROW(plan_job(alloc, JobSpec{}, std::vector<std::string>{}),
               MappingError);
}

TEST(Runtime, Level4RankfilePath) {
  const Allocation alloc = figure2_allocation();
  const LaunchPlan plan = plan_job(
      alloc, JobSpec{.np = 2},
      {"--rankfile-text", "rank 0=node1 slot=0:0;rank 1=node0 slot=1:3"});
  EXPECT_EQ(plan.procs()[0].node, 1u);
  EXPECT_EQ(plan.procs()[0].cpuset.to_string(), "0-1");
  EXPECT_EQ(plan.procs()[1].node, 0u);
  EXPECT_EQ(plan.procs()[1].cpuset.to_string(), "14-15");
}

TEST(Runtime, RankfileCountMismatchThrows) {
  const Allocation alloc = figure2_allocation();
  EXPECT_THROW(plan_job(alloc, JobSpec{.np = 3},
                        {"--rankfile-text", "rank 0=node0 slot=0"}),
               MappingError);
}

TEST(Runtime, RankfileOversubscribePolicy) {
  const Allocation alloc = figure2_allocation();
  const std::vector<std::string> args = {
      "--rankfile-text", "rank 0=node0 slot=0;rank 1=node0 slot=0"};
  EXPECT_NO_THROW(plan_job(alloc, JobSpec{.np = 2}, args));
  EXPECT_THROW(
      plan_job(alloc, JobSpec{.np = 2, .allow_oversubscribe = false}, args),
      OversubscribeError);
}

TEST(Runtime, OversubscribePolicyFlowsThrough) {
  const Allocation alloc = figure2_allocation(1);
  EXPECT_THROW(plan_job(alloc,
                        JobSpec{.np = 17, .allow_oversubscribe = false},
                        {"--map-by", "lama:hcsbn"}),
               OversubscribeError);
}

TEST(Runtime, CpusPerProcOptionReservesPus) {
  const Allocation alloc = figure2_allocation(1);
  const LaunchPlan plan =
      plan_job(alloc, JobSpec{.np = 4},
               {"--cpus-per-proc", "4", "--map-by", "lama:hcsbn"});
  for (const LaunchedProcess& p : plan.procs()) {
    EXPECT_EQ(plan.mapping()
                  .pus(static_cast<std::size_t>(p.rank)).count(),
              4u);
  }
}

TEST(Runtime, ThreadsPerProcReservesPusByDefault) {
  const Allocation alloc = figure2_allocation(1);
  const LaunchPlan plan = plan_job(
      alloc, JobSpec{.np = 8, .threads_per_proc = 2}, {"--by-slot"});
  for (std::size_t r = 0; r < plan.mapping().num_procs(); ++r) {
    EXPECT_EQ(plan.mapping().pus(r).count(), 2u);
  }
}

TEST(Runtime, IterationOrderFlowsThrough) {
  const Allocation alloc = figure2_allocation(1);
  const LaunchPlan plan = plan_job(
      alloc, JobSpec{.np = 2},
      {"--map-by", "lama:scbnh", "--mca", "rmaps_lama_order", "s:rev"});
  // Reversed socket order: rank 0 lands on socket 1.
  EXPECT_GE(plan.mapping().representative_pu(0), 8u);
}

TEST(Runtime, ReportBindingsFormat) {
  const Allocation alloc = figure2_allocation();
  const LaunchPlan plan = plan_job(
      alloc, JobSpec{.np = 2}, {"--map-by", "lama:scbnh", "--bind-to", "core"});
  const std::string report = plan.report_bindings(alloc);
  // Rank 0: socket 0 core 0 -> "[BB/../../..][../../../..]".
  EXPECT_NE(report.find("[node0 rank 0] bound to 0-1: "
                        "[BB/../../..][../../../..]"),
            std::string::npos)
      << report;
  // Rank 1: socket 1 core 0.
  EXPECT_NE(report.find("[node0 rank 1] bound to 8-9: "
                        "[../../../..][BB/../../..]"),
            std::string::npos)
      << report;
}

TEST(Runtime, ReplanAfterNodeLoss) {
  // §VI's dynamic-adaptation claim: the same spec re-planned after a socket
  // goes away moves only the ranks that must move.
  const Allocation alloc = figure2_allocation(2);
  const PlacementSpec spec = parse_mpirun_options(
      {"--map-by", "lama:scbnh", "--bind-to", "core"});
  const JobSpec job{.np = 16};
  const LaunchPlan old_plan = plan_job(alloc, job, spec);

  Allocation changed = alloc;
  changed.mutable_node(1).topo.set_object_disabled(ResourceType::kSocket, 1,
                                                   true);
  const ReplanDiff diff = replan_job(changed, job, spec, old_plan);
  EXPECT_EQ(diff.plan.procs().size(), 16u);
  EXPECT_GT(diff.moved_ranks.size(), 0u);
  EXPECT_GT(diff.unchanged, 0u);
  EXPECT_EQ(diff.unchanged + diff.moved_ranks.size(), 16u);
  // Nothing lands on the lost socket.
  for (const LaunchedProcess& p : diff.plan.procs()) {
    if (p.node == 1) {
      EXPECT_TRUE(
          p.cpuset.is_subset_of(changed.node(1).topo.online_pus()));
    }
  }
}

TEST(Runtime, ReplanIdenticalAllocationMovesNothing) {
  const Allocation alloc = figure2_allocation(2);
  const PlacementSpec spec =
      parse_mpirun_options({"--map-by", "lama:scbnh"});
  const JobSpec job{.np = 12};
  const LaunchPlan old_plan = plan_job(alloc, job, spec);
  const ReplanDiff diff = replan_job(alloc, job, spec, old_plan);
  EXPECT_TRUE(diff.moved_ranks.empty());
  EXPECT_EQ(diff.unchanged, 12u);
}

TEST(Runtime, ReportBindingsGroupsByBoardWhenNoSockets) {
  Cluster c;
  c.add_node(NodeTopology::synthetic("board:2 core:2", "flat"));
  const Allocation alloc = allocate_all(c);
  const LaunchPlan plan = plan_job(
      alloc, JobSpec{.np = 1}, {"--map-by", "lama:cbn", "--bind-to", "c"});
  const std::string report = plan.report_bindings(alloc);
  // Two board-level bracket groups, cores separated by '/'.
  EXPECT_NE(report.find("[B/.][./.]"), std::string::npos) << report;
}

TEST(Runtime, ReportBindingsNodeGroupWhenNoSocketsOrBoards) {
  Cluster c;
  c.add_node(NodeTopology::synthetic("core:4", "tiny"));
  const Allocation alloc = allocate_all(c);
  const LaunchPlan plan = plan_job(
      alloc, JobSpec{.np = 2}, {"--map-by", "lama:cn", "--bind-to", "c"});
  const std::string report = plan.report_bindings(alloc);
  EXPECT_NE(report.find("[B/././.]"), std::string::npos) << report;
}

TEST(Runtime, ReportBindingsUnboundSaysNotBound) {
  const Allocation alloc = figure2_allocation();
  const LaunchPlan plan = plan_job(alloc, JobSpec{.np = 1}, {"--by-slot"});
  const std::string report = plan.report_bindings(alloc);
  EXPECT_NE(report.find("not bound"), std::string::npos) << report;
}

}  // namespace
}  // namespace lama
