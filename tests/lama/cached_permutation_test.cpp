// Exhaustive permutation sweep on hardware with cache and NUMA levels: all
// 720 orderings of {n, s, N, L2, c, h} must satisfy the core invariants on
// a topology where every one of those levels is structurally real.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "lama/mapper.hpp"

namespace lama {
namespace {

std::vector<std::string> six_letter_layouts() {
  // Tokens, not chars, because L2 is two characters.
  std::vector<std::string> tokens = {"n", "s", "N", "L2", "c", "h"};
  std::sort(tokens.begin(), tokens.end());
  std::vector<std::string> layouts;
  do {
    std::string layout;
    for (const std::string& t : tokens) layout += t;
    layouts.push_back(layout);
  } while (std::next_permutation(tokens.begin(), tokens.end()));
  return layouts;
}

class CachedPermutationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CachedPermutationTest, FullCoverageInvariants) {
  // 2 nodes x 2 sockets x 2 NUMA x 2 L2 x 2 cores x 2 threads = 32 PUs/node.
  const Allocation alloc = allocate_all(
      Cluster::homogeneous(2, "socket:2 numa:2 l2:2 core:2 pu:2"));
  const std::size_t capacity = 64;
  const MappingResult m = lama_map(alloc, GetParam(), {.np = capacity});

  ASSERT_EQ(m.num_procs(), capacity);
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    ASSERT_EQ(m.pus(r).count(), 1u) << GetParam();
    EXPECT_TRUE(used.insert({m.node(r), m.representative_pu(r)}).second)
        << GetParam();
  }
  EXPECT_EQ(used.size(), capacity);
  EXPECT_EQ(m.sweeps, 1u);
  EXPECT_EQ(m.skipped, 0u);
  EXPECT_FALSE(m.pu_oversubscribed);
}

INSTANTIATE_TEST_SUITE_P(All720, CachedPermutationTest,
                         ::testing::ValuesIn(six_letter_layouts()),
                         [](const auto& info) {
                           std::string name = info.param;
                           // Test names must be alphanumeric.
                           return name;
                         });

}  // namespace
}  // namespace lama
