// Randomized end-to-end properties: random heterogeneous clusters (random
// fan-outs, missing mid-levels, random off-lining) mapped under random full
// layouts. Every invariant here must hold for ANY topology and ANY layout —
// this is the heterogeneity promise of §IV-B exercised far beyond the
// hand-built shapes in the other suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "lama/binding.hpp"
#include "lama/mapper.hpp"
#include "support/rng.hpp"
#include "topo/random.hpp"
#include "topo/serialize.hpp"

namespace lama {
namespace {

ProcessLayout random_full_layout(SplitMix64& rng) {
  std::vector<ResourceType> letters(all_resource_types().begin(),
                                    all_resource_types().end());
  for (std::size_t i = letters.size(); i-- > 1;) {
    std::swap(letters[i], letters[rng.next_below(i + 1)]);
  }
  return ProcessLayout(std::move(letters));
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, MappingInvariantsOnRandomClusters) {
  SplitMix64 rng(GetParam());
  Cluster cluster;
  const std::size_t nodes = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < nodes; ++i) {
    RandomTopologyOptions opts;
    opts.seed = rng.next();
    opts.max_fanout = 3;
    opts.level_presence = 0.5;
    opts.subtree_skip = 0.3;
    opts.smt = rng.next_bool(0.5);
    opts.disable_fraction = rng.next_bool(0.5) ? 0.15 : 0.0;
    cluster.add_node(random_topology(opts, "r" + std::to_string(i)));
  }
  Allocation alloc = allocate_all(cluster);
  const std::size_t capacity = alloc.total_online_pus();
  ASSERT_GT(capacity, 0u);

  const ProcessLayout layout = random_full_layout(rng);
  const std::size_t np = 1 + rng.next_below(capacity);
  const MappingResult m = lama_map(alloc, layout, {.np = np});

  ASSERT_EQ(m.num_procs(), np) << layout.to_string();
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t i = 0; i < m.num_procs(); ++i) {
    ASSERT_LT(m.node(i), alloc.num_nodes());
    // Full alphabet: targets resolve to exactly one PU.
    ASSERT_EQ(m.pus(i).count(), 1u) << layout.to_string();
    const std::size_t pu = m.representative_pu(i);
    EXPECT_TRUE(alloc.node(m.node(i)).topo.online_pus().test(pu))
        << layout.to_string() << " seed " << GetParam();
    // Injective while np <= capacity.
    EXPECT_TRUE(used.insert({m.node(i), pu}).second)
        << layout.to_string() << " seed " << GetParam();
  }
  EXPECT_FALSE(m.pu_oversubscribed);
  EXPECT_EQ(m.visited, np + m.skipped);
}

TEST_P(FuzzTest, FullCapacityUsesEveryOnlinePu) {
  SplitMix64 rng(GetParam() * 7919);
  RandomTopologyOptions opts;
  opts.seed = rng.next();
  opts.max_fanout = 3;
  opts.subtree_skip = 0.25;
  opts.disable_fraction = 0.2;
  Cluster cluster;
  cluster.add_node(random_topology(opts, "a"));
  opts.seed = rng.next();
  cluster.add_node(random_topology(opts, "b"));
  const Allocation alloc = allocate_all(cluster);
  const std::size_t capacity = alloc.total_online_pus();

  const ProcessLayout layout = random_full_layout(rng);
  const MappingResult m = lama_map(alloc, layout, {.np = capacity});
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    used.insert({m.node(r), m.representative_pu(r)});
  }
  // Exactly every online PU is used once.
  EXPECT_EQ(used.size(), capacity) << layout.to_string();
  EXPECT_EQ(m.sweeps, 1u);
}

TEST_P(FuzzTest, BindingNeverEscapesTheNodeOrOfflinePus) {
  SplitMix64 rng(GetParam() * 104729);
  RandomTopologyOptions opts;
  opts.seed = rng.next();
  opts.disable_fraction = 0.1;
  Cluster cluster;
  cluster.add_node(random_topology(opts, "a"));
  const Allocation alloc = allocate_all(cluster);
  const std::size_t np =
      std::max<std::size_t>(1, alloc.total_online_pus() / 2);
  const MappingResult m =
      lama_map(alloc, random_full_layout(rng), {.np = np});

  for (BindTarget target : {BindTarget::kHwThread, BindTarget::kCore,
                            BindTarget::kSocket, BindTarget::kNode}) {
    BindingPolicy policy{target, 1, /*widen_if_missing=*/true, true};
    const BindingResult b = bind_processes(alloc, m, policy);
    for (const ProcessBinding& pb : b.bindings) {
      EXPECT_FALSE(pb.cpuset.empty());
      EXPECT_TRUE(
          pb.cpuset.is_subset_of(alloc.node(pb.node).topo.online_pus()));
      EXPECT_EQ(pb.width, pb.cpuset.count());
    }
  }
}

TEST_P(FuzzTest, SerializationRoundTripsRandomTrees) {
  RandomTopologyOptions opts;
  opts.seed = GetParam() * 31;
  opts.subtree_skip = 0.3;
  opts.disable_fraction = 0.15;
  const NodeTopology topo = random_topology(opts, "rt");
  const NodeTopology back = parse_topology(serialize_topology(topo), "rt");
  EXPECT_EQ(back.pu_count(), topo.pu_count());
  EXPECT_EQ(back.online_pus(), topo.online_pus());
  EXPECT_EQ(back.levels(), topo.levels());
  // Second round trip is a fixed point.
  EXPECT_EQ(serialize_topology(back), serialize_topology(topo));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace lama
