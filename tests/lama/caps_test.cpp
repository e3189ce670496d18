// Per-resource process caps — the "restrict the total number of processes
// placed on any given resource" option of SLURM and ALPS the paper's
// related work describes (§II), wired through MapOptions and the CLI.
#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "lama/baselines.hpp"
#include "lama/cli.hpp"
#include "lama/mapper.hpp"
#include "rte/runtime.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

using test::figure2_allocation;

TEST(Caps, NpernodeLimitsProcessesPerNode) {
  MapOptions opts{.np = 8};
  opts.set_cap(ResourceType::kNode, 2);
  const MappingResult m = lama_map(figure2_allocation(4), "hcsbn", opts);
  ASSERT_EQ(m.num_procs(), 8u);
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(m.procs_per_node[n], 2u);
  }
}

TEST(Caps, SocketCapSpreadsWithinNodes) {
  MapOptions opts{.np = 4};
  opts.set_cap(ResourceType::kSocket, 1);
  const MappingResult m = lama_map(figure2_allocation(2), "hcsbn", opts);
  // One process per socket: PUs 0 and 8 on each node.
  EXPECT_EQ(m.representative_pu(0), 0u);
  EXPECT_EQ(m.representative_pu(1), 8u);
  EXPECT_EQ(m.node(2), 1u);
  EXPECT_EQ(m.representative_pu(2), 0u);
}

TEST(Caps, CoreCapAllowsOneThreadPerCore) {
  MapOptions opts{.np = 16};
  opts.set_cap(ResourceType::kCore, 1);
  const MappingResult m = lama_map(figure2_allocation(2), "hcsbn", opts);
  // Only even PUs (thread 0 of each core) are used.
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_EQ(m.representative_pu(r) % 2, 0u);
  }
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST(Caps, CappedOutJobThrowsInsteadOfLooping) {
  MapOptions opts{.np = 9};
  opts.set_cap(ResourceType::kNode, 2);
  // 2 nodes x cap 2 = 4 process slots < 9 requested.
  EXPECT_THROW(lama_map(figure2_allocation(2), "hcsbn", opts), MappingError);
}

TEST(Caps, CapOnPrunedLevelIsRejected) {
  MapOptions opts{.np = 4};
  opts.set_cap(ResourceType::kL2, 1);
  EXPECT_THROW(lama_map(figure2_allocation(1), "hcsbn", opts), MappingError);
}

TEST(Caps, BaselinesHonorNodeCap) {
  MapOptions opts{.np = 6};
  opts.set_cap(ResourceType::kNode, 2);
  const MappingResult slot = map_by_slot(figure2_allocation(3), opts);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(slot.procs_per_node[n], 2u);
  }
  const MappingResult node = map_by_node(figure2_allocation(3), opts);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(node.procs_per_node[n], 2u);
  }
  // Finer caps are not supported by the classic mappers.
  MapOptions socket_cap{.np = 2};
  socket_cap.set_cap(ResourceType::kSocket, 1);
  EXPECT_THROW(map_by_slot(figure2_allocation(1), socket_cap), MappingError);
}

TEST(Caps, CliNpernode) {
  const PlacementSpec spec = parse_mpirun_options({"--npernode", "2"});
  EXPECT_EQ(spec.resource_caps[canonical_depth(ResourceType::kNode)], 2u);
  EXPECT_THROW(parse_mpirun_options({"--npernode", "0"}), ParseError);
}

TEST(Caps, CliMcaMax) {
  const PlacementSpec spec =
      parse_mpirun_options({"--mca", "rmaps_lama_max", "2n,1s"});
  EXPECT_EQ(spec.resource_caps[canonical_depth(ResourceType::kNode)], 2u);
  EXPECT_EQ(spec.resource_caps[canonical_depth(ResourceType::kSocket)], 1u);
  EXPECT_THROW(parse_mpirun_options({"--mca", "rmaps_lama_max", "s"}),
               ParseError);
  EXPECT_THROW(parse_mpirun_options({"--mca", "rmaps_lama_max", "2x"}),
               ParseError);
  EXPECT_THROW(parse_mpirun_options({"--mca", "rmaps_lama_max", "0s"}),
               ParseError);
}

TEST(Caps, EndToEndThroughPlanJob) {
  const Allocation alloc = figure2_allocation(4);
  const LaunchPlan plan =
      plan_job(alloc, JobSpec{.np = 8},
               {"--npernode", "2", "--map-by", "lama:hcsbn"});
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(plan.procs_on_node(n).size(), 2u);
  }
}

TEST(Caps, MultiPuProcessesCountOncePerCap) {
  MapOptions opts{.np = 4, .pus_per_proc = 2};
  opts.set_cap(ResourceType::kNode, 2);
  const MappingResult m = lama_map(figure2_allocation(2), "hcsbn", opts);
  EXPECT_EQ(m.procs_per_node[0], 2u);
  EXPECT_EQ(m.procs_per_node[1], 2u);
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_EQ(m.pus(r).count(), 2u);
  }
}

}  // namespace
}  // namespace lama
