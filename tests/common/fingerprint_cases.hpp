// The topologies and allocations whose fingerprints tests/golden/
// fingerprints.txt pins: the presets, the presets with objects off-lined or
// PUs restricted, and seeded topo/random.hpp trees and allocations (repeated
// nodes, off-lined nodes, core-granular grants). The fingerprints key every
// cache and the values must not move between builds, so the golden was
// recorded once and every later build replays it: test_topo checks the
// "topo" lines, test_cluster the "alloc" lines. Add cases only at the end of
// a list, and record their lines with the build that adds them.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "support/bitmap.hpp"
#include "support/rng.hpp"
#include "topo/node_topology.hpp"
#include "topo/presets.hpp"
#include "topo/random.hpp"

namespace lama::test {

inline std::vector<std::pair<std::string, NodeTopology>>
fingerprint_topologies() {
  std::vector<std::pair<std::string, NodeTopology>> out;
  out.emplace_back("figure2", presets::figure2_node());
  out.emplace_back("dual_socket_numa", presets::dual_socket_numa());
  out.emplace_back("quad_board_smp", presets::quad_board_smp());
  out.emplace_back("no_smt", presets::no_smt_node());
  out.emplace_back("lopsided", presets::lopsided_node());
  out.emplace_back("synthetic_deep", NodeTopology::synthetic(
                                         "board:1 socket:2 numa:1 l2:4 "
                                         "core:4 pu:2"));

  NodeTopology core_off = presets::figure2_node();
  core_off.set_object_disabled(ResourceType::kCore, 3, true);
  out.emplace_back("figure2_core3_off", core_off);
  NodeTopology node_off = presets::figure2_node();
  node_off.set_object_disabled(ResourceType::kNode, 0, true);
  out.emplace_back("figure2_node_off", node_off);
  NodeTopology numa_off = presets::dual_socket_numa();
  numa_off.set_object_disabled(ResourceType::kNuma, 1, true);
  out.emplace_back("dual_socket_numa_numa1_off", numa_off);
  NodeTopology restricted = presets::figure2_node();
  Bitmap even;
  for (std::size_t pu = 0; pu < 16; pu += 2) even.set(pu);
  restricted.restrict_pus(even);
  out.emplace_back("figure2_even_pus", restricted);
  NodeTopology cleared = restricted;
  cleared.clear_restrictions();
  out.emplace_back("figure2_cleared", cleared);

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomTopologyOptions opts;
    opts.seed = seed;
    opts.max_fanout = 3 + static_cast<int>(seed % 2);
    opts.smt = seed % 3 != 0;
    opts.disable_fraction = seed % 4 == 0 ? 0.0 : 0.15;
    out.emplace_back("random_" + std::to_string(seed),
                     random_topology(opts, "r" + std::to_string(seed)));
  }
  return out;
}

inline std::vector<std::pair<std::string, Allocation>>
fingerprint_allocations() {
  std::vector<std::pair<std::string, Allocation>> out;
  out.emplace_back("churn16", allocate_all(Cluster::homogeneous(
                                  16, "socket:2 core:4 pu:2")));
  out.emplace_back("large64", allocate_all(Cluster::homogeneous(
                                  64, "socket:2 core:8 pu:2")));

  Cluster mixed;
  mixed.add_node(presets::figure2_node("a"), 8);
  mixed.add_node(presets::dual_socket_numa("b"));
  mixed.add_node(presets::quad_board_smp("c"), 12);
  mixed.add_node(presets::no_smt_node("d"));
  mixed.add_node(presets::lopsided_node("e"), 3);
  mixed.add_node(presets::figure2_node("f"));
  out.emplace_back("mixed", allocate_all(mixed));
  out.emplace_back("mixed_subset", allocate_nodes(mixed, {5, 0, 2}));

  Allocation offlined = allocate_all(Cluster::homogeneous(
      8, "socket:2 core:4 pu:2"));
  offlined.mutable_node(2).topo.set_object_disabled(ResourceType::kNode, 0,
                                                    true);
  offlined.mutable_node(5).topo.set_object_disabled(ResourceType::kHwThread,
                                                    9, true);
  out.emplace_back("churn8_offlined", offlined);

  Bitmap low;
  for (std::size_t pu = 0; pu < 6; ++pu) low.set(pu);
  Bitmap odd;
  for (std::size_t pu = 1; pu < 16; pu += 2) odd.set(pu);
  out.emplace_back("cores", allocate_cores(mixed, {{0, low}, {5, odd}}));

  SplitMix64 rng(2011);
  for (int a = 0; a < 8; ++a) {
    Cluster cluster;
    std::vector<NodeTopology> shapes;
    const std::size_t distinct = 1 + rng.next_below(3);
    for (std::size_t s = 0; s < distinct; ++s) {
      RandomTopologyOptions opts;
      opts.seed = rng.next();
      opts.max_fanout = 3;
      opts.smt = rng.next_bool(0.5);
      opts.disable_fraction = 0.1;
      shapes.push_back(random_topology(opts));
    }
    const std::size_t nodes = 2 + rng.next_below(6);
    for (std::size_t n = 0; n < nodes; ++n) {
      cluster.add_node(shapes[rng.next_below(distinct)],
                       rng.next_below(3) == 0 ? 4 : 0);
    }
    Allocation alloc = allocate_all(cluster);
    if (rng.next_bool(0.5)) {
      alloc.mutable_node(rng.next_below(nodes))
          .topo.set_object_disabled(ResourceType::kNode, 0, true);
    }
    out.emplace_back("random_" + std::to_string(a), std::move(alloc));
  }
  return out;
}

}  // namespace lama::test
