// Property suite: invariants that must hold for *every* process layout, on
// homogeneous, heterogeneous, and restricted allocations. Parameterized over
// all 120 permutations of the 5-letter alphabet {n,b,s,c,h} (every full
// 9-letter permutation reduces to one of these on cacheless, single-NUMA
// hardware, because absent levels are width-1 loops).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "lama/mapper.hpp"
#include "support/error.hpp"
#include "topo/presets.hpp"

namespace lama {
namespace {

std::vector<std::string> all_permutations_of(std::string letters) {
  std::sort(letters.begin(), letters.end());
  std::vector<std::string> out;
  do {
    out.push_back(letters);
  } while (std::next_permutation(letters.begin(), letters.end()));
  return out;
}

class LayoutPermutationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LayoutPermutationTest, InvariantsOnHomogeneousCluster) {
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(3, "socket:2 core:2 pu:2"));
  const std::size_t capacity = 24;
  const MappingResult m = lama_map(alloc, GetParam(), {.np = capacity});

  ASSERT_EQ(m.num_procs(), capacity);
  std::set<std::pair<std::size_t, std::size_t>> used;  // (node, pu)
  for (std::size_t i = 0; i < m.num_procs(); ++i) {
    // Ranks are assigned in order.
    // Every target is a real, online, single PU (full alphabet => thread
    // granularity) on an allocated node.
    ASSERT_LT(m.node(i), alloc.num_nodes());
    ASSERT_EQ(m.pus(i).count(), 1u);
    const std::size_t pu = m.representative_pu(i);
    EXPECT_TRUE(alloc.node(m.node(i)).topo.online_pus().test(pu));
    // Injective up to capacity: no PU is reused before wraparound.
    EXPECT_TRUE(used.insert({m.node(i), pu}).second)
        << "layout " << GetParam() << " reused node " << m.node(i) << " pu "
        << pu;
  }
  EXPECT_FALSE(m.pu_oversubscribed);
  EXPECT_EQ(m.sweeps, 1u);
  EXPECT_EQ(m.skipped, 0u);  // homogeneous, unrestricted: nothing to skip
}

TEST_P(LayoutPermutationTest, InvariantsOnHeterogeneousCluster) {
  Cluster c;
  c.add_node(NodeTopology::synthetic("socket:2 core:2 pu:2", "smt"));
  c.add_node(NodeTopology::synthetic("socket:1 core:3", "tiny"));
  c.add_node(presets::lopsided_node("lopsided"));
  const Allocation alloc = allocate_all(c);
  const std::size_t capacity = 8 + 3 + 8;
  const MappingResult m = lama_map(alloc, GetParam(), {.np = capacity});

  ASSERT_EQ(m.num_procs(), capacity);
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    ASSERT_EQ(m.pus(r).count(), 1u);
    const std::size_t pu = m.representative_pu(r);
    EXPECT_TRUE(alloc.node(m.node(r)).topo.online_pus().test(pu));
    EXPECT_TRUE(used.insert({m.node(r), pu}).second) << "layout " << GetParam();
  }
  // Full capacity was consumed exactly: every node got all of its PUs.
  EXPECT_EQ(m.procs_per_node[0], 8u);
  EXPECT_EQ(m.procs_per_node[1], 3u);
  EXPECT_EQ(m.procs_per_node[2], 8u);
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST_P(LayoutPermutationTest, InvariantsUnderRestrictions) {
  Cluster c = Cluster::homogeneous(2, "socket:2 core:2 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.set_object_disabled(ResourceType::kSocket, 1,
                                                 true);
  alloc.mutable_node(1).topo.restrict_pus(Bitmap::parse("0,3,5"));
  const std::size_t capacity = 4 + 3;
  const MappingResult m = lama_map(alloc, GetParam(), {.np = capacity});

  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    const std::size_t pu = m.representative_pu(r);
    EXPECT_TRUE(alloc.node(m.node(r)).topo.online_pus().test(pu))
        << "layout " << GetParam();
    EXPECT_TRUE(used.insert({m.node(r), pu}).second);
  }
  EXPECT_EQ(m.procs_per_node[0], 4u);
  EXPECT_EQ(m.procs_per_node[1], 3u);
  EXPECT_FALSE(m.pu_oversubscribed);
}

TEST_P(LayoutPermutationTest, WraparoundDistributesEvenly) {
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(2, "socket:2 core:2 pu:2"));
  // Two full sweeps: every PU must carry exactly 2 processes.
  const MappingResult m = lama_map(alloc, GetParam(), {.np = 32});
  std::map<std::pair<std::size_t, std::size_t>, int> load;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    ++load[{m.node(r), m.representative_pu(r)}];
  }
  EXPECT_EQ(load.size(), 16u);
  for (const auto& [key, count] : load) EXPECT_EQ(count, 2);
  EXPECT_TRUE(m.pu_oversubscribed);
  EXPECT_EQ(m.sweeps, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllFiveLetterLayouts, LayoutPermutationTest,
                         ::testing::ValuesIn(all_permutations_of("nbsch")),
                         [](const auto& info) { return info.param; });

// The iteration-order law: for any layout, the sequence of mapped
// coordinates is the mixed-radix counter whose digit i (layout position i)
// varies faster than digit i+1 — on an unrestricted homogeneous system.
class IterationOrderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IterationOrderTest, MixedRadixCounterOrder) {
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(2, "socket:2 core:2 pu:2"));
  const MappingResult m = lama_map(alloc, GetParam(), {.np = 32});
  // Reconstruct expected coordinates from the widths implied by the layout.
  const ProcessLayout layout = ProcessLayout::parse(GetParam());
  std::vector<std::size_t> widths;
  for (ResourceType t : layout.order()) {
    switch (t) {
      case ResourceType::kNode: widths.push_back(2); break;
      case ResourceType::kSocket: widths.push_back(2); break;
      case ResourceType::kCore: widths.push_back(2); break;
      case ResourceType::kHwThread: widths.push_back(2); break;
      default: widths.push_back(1); break;  // board bridged
    }
  }
  std::vector<std::size_t> expect(widths.size(), 0);
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    EXPECT_TRUE(std::ranges::equal(m.coord(r), expect)) << "rank " << r;
    // Increment the mixed-radix counter, least-significant digit first.
    for (std::size_t d = 0; d < widths.size(); ++d) {
      if (++expect[d] < widths[d]) break;
      expect[d] = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SelectedLayouts, IterationOrderTest,
                         ::testing::Values("scbnh", "hcsbn", "nhcsb", "nsch",
                                           "bnsch", "cnsh"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lama
