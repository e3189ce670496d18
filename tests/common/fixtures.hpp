// Shared topology fixtures and mapping comparators for the test suites.
// Before this header the same builders were re-declared file-by-file across
// tests/lama/*_test.cpp and tests/svc/*_test.cpp; keep additions here so a
// topology tweak (or a new comparator) lands everywhere at once.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/mapping.hpp"
#include "topo/node_topology.hpp"

namespace lama::test {

// The Figure 2 machine: nodes of 2 sockets x 4 cores x 2 threads (16 PUs
// each). The paper's worked example uses two of them.
inline Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

// Small SMT nodes: 2 sockets x 2 cores x 2 threads (8 PUs each) — compact
// enough for exhaustive permutation sweeps.
inline Allocation small_smt_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:2 pu:2"));
}

// Deep homogeneous nodes with real cache and NUMA levels:
// 2 sockets x 2 NUMA x 2 L2 x 2 cores x 2 threads (32 PUs each).
inline Allocation multi_level_allocation(std::size_t nodes = 2) {
  return allocate_all(
      Cluster::homogeneous(nodes, "socket:2 numa:2 l2:2 core:2 pu:2"));
}

// Two-node heterogeneous allocation: an 8-PU SMT node plus a 3-core no-SMT
// node. Every full-alphabet layout exercises both coordinate skipping
// (nonexistent coordinates on the small node) and pass-through bridging on
// it. Online capacity: 11 PUs.
inline Allocation hetero_two_node_allocation() {
  Cluster c;
  c.add_node(NodeTopology::synthetic("socket:2 core:2 pu:2", "smt"));
  c.add_node(NodeTopology::synthetic("socket:1 core:3", "tiny"));
  return allocate_all(c);
}

// The heterogeneous pair with the SMT node's core 1 (PUs 2-3) off-lined by
// the scheduler — the sweep suites use it to assert that every layout
// honors availability skipping. Online targets: 6 SMT PUs + 3 bare cores.
inline Allocation hetero_two_node_offline_allocation() {
  Cluster c;
  c.add_node(NodeTopology::synthetic("socket:2 core:2 pu:2", "smt"));
  c.add_node(NodeTopology::synthetic("socket:1 core:3", "tiny"));
  Bitmap smt_online = Bitmap::range(0, 7);
  smt_online.clear(2);
  smt_online.clear(3);
  return allocate_cores(c, {{0, smt_online}, {1, Bitmap::range(0, 2)}});
}

// A rank's coordinate as a vector, for EXPECT_EQ.
inline std::vector<std::size_t> coord_vector(const MappingResult& m,
                                             std::size_t rank) {
  const std::span<const std::uint32_t> c = m.coord(rank);
  return {c.begin(), c.end()};
}

// Renders a mapping as one stable text line per rank —
//   rank=<r> node=<n> pus=<set> coord=<csv>
// followed by a trailer with the run counters. The golden files under
// tests/golden/ are committed in exactly this format, and the differential
// determinism tests compare it byte-for-byte.
inline std::string format_mapping_table(const MappingResult& m) {
  std::string out;
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    out += "rank=" + std::to_string(r) +
           " node=" + std::to_string(m.node(r)) + " pus=" +
           m.pus(r).to_string() + " coord=";
    const std::span<const std::uint32_t> coord = m.coord(r);
    for (std::size_t i = 0; i < coord.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(coord[i]);
    }
    out += '\n';
  }
  out += "layout=" + m.layout + " np=" + std::to_string(m.num_procs()) +
         " sweeps=" + std::to_string(m.sweeps) +
         " visited=" + std::to_string(m.visited) +
         " skipped=" + std::to_string(m.skipped) +
         " pu_oversub=" + std::to_string(m.pu_oversubscribed ? 1 : 0) +
         " slot_oversub=" + std::to_string(m.slot_oversubscribed ? 1 : 0) +
         "\n";
  return out;
}

// True when two mappings agree on every observable field — the loop-free
// check the exhaustive sweeps use (EXPECT per field would dominate runtime
// over 9! layouts). On mismatch, diff format_mapping_table() output.
inline bool identical_mappings(const MappingResult& a,
                               const MappingResult& b) {
  if (a.layout != b.layout || a.sweeps != b.sweeps ||
      a.skipped != b.skipped || a.visited != b.visited ||
      a.pu_oversubscribed != b.pu_oversubscribed ||
      a.slot_oversubscribed != b.slot_oversubscribed ||
      a.procs_per_node != b.procs_per_node || a.num_procs() != b.num_procs()) {
    return false;
  }
  for (std::size_t r = 0; r < a.num_procs(); ++r) {
    if (a.node(r) != b.node(r) || !a.pus(r).equals(b.pus(r)) ||
        !std::ranges::equal(a.coord(r), b.coord(r))) {
      return false;
    }
  }
  return true;
}

// gtest assertion wrapper: prints both tables on mismatch.
inline void expect_identical_mappings(const MappingResult& want,
                                      const MappingResult& got,
                                      const std::string& context) {
  EXPECT_TRUE(identical_mappings(want, got))
      << context << "\n--- want ---\n"
      << format_mapping_table(want) << "--- got ---\n"
      << format_mapping_table(got);
}

}  // namespace lama::test
