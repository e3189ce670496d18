#include "cluster/alloc_serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/fingerprint_cases.hpp"
#include "support/error.hpp"
#include "topo/serialize.hpp"

namespace lama {
namespace {

Allocation two_node_alloc() {
  return allocate_all(Cluster::homogeneous(2, "socket:2 core:4 pu:2"));
}

TEST(AllocSerialize, RoundTripPreservesStructure) {
  const Allocation alloc = two_node_alloc();
  const Allocation parsed = parse_allocation(serialize_allocation(alloc));
  ASSERT_EQ(parsed.num_nodes(), alloc.num_nodes());
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    EXPECT_EQ(parsed.node(i).slots, alloc.node(i).slots);
    EXPECT_EQ(serialize_topology(parsed.node(i).topo),
              serialize_topology(alloc.node(i).topo));
  }
}

TEST(AllocSerialize, FingerprintSurvivesRoundTrip) {
  const Allocation alloc = two_node_alloc();
  const Allocation parsed = parse_allocation(serialize_allocation(alloc));
  EXPECT_EQ(allocation_fingerprint(alloc), allocation_fingerprint(parsed));
}

TEST(AllocSerialize, FingerprintSeesSlots) {
  Allocation a = two_node_alloc();
  Allocation b = two_node_alloc();
  b.mutable_node(1).slots = 1;
  EXPECT_NE(allocation_fingerprint(a), allocation_fingerprint(b));
}

TEST(AllocSerialize, FingerprintSeesNodeOrderAndCount) {
  const Cluster hetero = parse_cluster_file(
      "big   socket:2 core:8 pu:2\n"
      "small socket:1 core:4\n");
  const Allocation fwd = allocate_nodes(hetero, {0, 1});
  const Allocation rev = allocate_nodes(hetero, {1, 0});
  const Allocation just_one = allocate_nodes(hetero, {0});
  EXPECT_NE(allocation_fingerprint(fwd), allocation_fingerprint(rev));
  EXPECT_NE(allocation_fingerprint(fwd), allocation_fingerprint(just_one));
}

TEST(AllocSerialize, FingerprintIgnoresClusterIndex) {
  // The cluster index only labels output; mapping results are identical, so
  // the cache may share trees across differently-indexed identical nodes.
  const Cluster cluster = Cluster::homogeneous(4, "socket:2 core:2 pu:2");
  const Allocation first_two = allocate_nodes(cluster, {0, 1});
  const Allocation last_two = allocate_nodes(cluster, {2, 3});
  EXPECT_EQ(allocation_fingerprint(first_two),
            allocation_fingerprint(last_two));
}

TEST(AllocSerialize, ParseSkipsBlanksAndComments) {
  const Allocation alloc = parse_allocation(
      "# a comment\n"
      "\n"
      "4 (node (core@0 (pu@0) (pu@1)))\n");
  ASSERT_EQ(alloc.num_nodes(), 1u);
  EXPECT_EQ(alloc.node(0).slots, 4u);
  EXPECT_EQ(alloc.node(0).topo.pu_count(), 2u);
}

TEST(AllocSerialize, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_allocation("just-one-token\n"), ParseError);
  EXPECT_THROW(parse_allocation("notanumber (node (pu@0))\n"), ParseError);
  EXPECT_THROW(parse_allocation("4 (garbage\n"), ParseError);
}

// Allocation fingerprints key every service cache and are compared across
// builds: every case of common/fingerprint_cases.hpp against
// golden/fingerprints.txt.
TEST(AllocSerialize, GoldenFingerprintsOfPresetAndRandomAllocations) {
  std::ifstream in(std::string(LAMA_TEST_GOLDEN_DIR) + "/fingerprints.txt");
  ASSERT_TRUE(in) << "missing golden/fingerprints.txt";
  std::map<std::string, std::string> golden;
  std::string kind, label, hex;
  while (in >> kind >> label >> hex) {
    if (kind == "alloc") golden[label] = hex;
  }
  const auto cases = test::fingerprint_allocations();
  ASSERT_EQ(cases.size(), golden.size());
  for (const auto& [name, alloc] : cases) {
    char value[17];
    std::snprintf(value, sizeof(value), "%016llx",
                  static_cast<unsigned long long>(allocation_fingerprint(alloc)));
    EXPECT_EQ(value, golden[name]) << name;
  }
}

}  // namespace
}  // namespace lama
