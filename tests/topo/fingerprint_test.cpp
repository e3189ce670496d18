#include "topo/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/fingerprint_cases.hpp"
#include "topo/presets.hpp"
#include "topo/serialize.hpp"

namespace lama {
namespace {

TEST(Fingerprint, SerializeParseFingerprintIsFixedPoint) {
  // The satellite property: a topology that travelled over the wire hashes
  // identically to the original, for regular and irregular trees alike.
  const NodeTopology regular =
      NodeTopology::synthetic("socket:2 numa:2 l2:2 core:4 pu:2");
  const NodeTopology irregular = presets::lopsided_node();
  for (const NodeTopology* topo : {&regular, &irregular}) {
    const NodeTopology round_tripped =
        parse_topology(serialize_topology(*topo));
    EXPECT_EQ(topology_fingerprint(*topo),
              topology_fingerprint(round_tripped));
  }
}

TEST(Fingerprint, EqualTreesHashEqual) {
  const NodeTopology a = NodeTopology::synthetic("socket:2 core:4 pu:2");
  const NodeTopology b = NodeTopology::synthetic("socket:2 core:4 pu:2");
  EXPECT_EQ(topology_fingerprint(a), topology_fingerprint(b));
}

TEST(Fingerprint, NameDoesNotAffectHash) {
  const NodeTopology a =
      NodeTopology::synthetic("socket:2 core:4 pu:2", "alpha");
  const NodeTopology b =
      NodeTopology::synthetic("socket:2 core:4 pu:2", "beta");
  EXPECT_EQ(topology_fingerprint(a), topology_fingerprint(b));
}

TEST(Fingerprint, ShapeChangesHash) {
  const NodeTopology a = NodeTopology::synthetic("socket:2 core:4 pu:2");
  const NodeTopology b = NodeTopology::synthetic("socket:2 core:4 pu:1");
  const NodeTopology c = NodeTopology::synthetic("socket:4 core:2 pu:2");
  EXPECT_NE(topology_fingerprint(a), topology_fingerprint(b));
  EXPECT_NE(topology_fingerprint(a), topology_fingerprint(c));
  EXPECT_NE(topology_fingerprint(b), topology_fingerprint(c));
}

TEST(Fingerprint, DisablingAnObjectChangesHash) {
  // Restrictions change which coordinates the mapper may use, so they must
  // key the cache differently.
  NodeTopology topo = NodeTopology::synthetic("socket:2 core:4 pu:2");
  const std::uint64_t before = topology_fingerprint(topo);
  topo.set_object_disabled(ResourceType::kCore, 3, true);
  const std::uint64_t after = topology_fingerprint(topo);
  EXPECT_NE(before, after);
  topo.set_object_disabled(ResourceType::kCore, 3, false);
  EXPECT_EQ(topology_fingerprint(topo), before);
}

// Fingerprints key the tree, plan and opt caches and are compared across
// builds, so their values are pinned: every case of
// common/fingerprint_cases.hpp against golden/fingerprints.txt.
TEST(Fingerprint, GoldenValuesOfPresetsAndRandomTrees) {
  std::ifstream in(std::string(LAMA_TEST_GOLDEN_DIR) + "/fingerprints.txt");
  ASSERT_TRUE(in) << "missing golden/fingerprints.txt";
  std::map<std::string, std::string> golden;
  std::string kind, label, hex;
  while (in >> kind >> label >> hex) {
    if (kind == "topo") golden[label] = hex;
  }
  const auto cases = test::fingerprint_topologies();
  ASSERT_EQ(cases.size(), golden.size());
  for (const auto& [name, topo] : cases) {
    char value[17];
    std::snprintf(value, sizeof(value), "%016llx",
                  static_cast<unsigned long long>(topology_fingerprint(topo)));
    EXPECT_EQ(value, golden[name]) << name;
  }
}

}  // namespace
}  // namespace lama
