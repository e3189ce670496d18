#include "lama/validate.hpp"

namespace lama {

std::string ValidationReport::to_string() const {
  if (ok()) return "mapping valid\n";
  std::string out;
  for (const std::string& v : violations) {
    out += "violation: " + v + "\n";
  }
  return out;
}

ValidationReport validate_mapping(const Allocation& alloc,
                                  const MappingResult& mapping) {
  ValidationReport report;
  auto fail = [&](std::string what) {
    report.violations.push_back(std::move(what));
  };

  std::vector<std::size_t> procs_per_node(alloc.num_nodes(), 0);
  // Occupancy per (node, PU) to re-derive the oversubscription flag. A rank
  // whose target spans w PUs contributes 1/w of a process to each — two
  // ranks sharing a 2-PU core are not oversubscribed, three are.
  std::vector<std::vector<double>> occupancy(alloc.num_nodes());
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    occupancy[n].assign(alloc.node(n).topo.pu_count(), 0.0);
  }

  for (std::size_t rank = 0; rank < mapping.num_procs(); ++rank) {
    const std::size_t node = mapping.node(rank);
    const BitmapView pus = mapping.pus(rank);
    if (node >= alloc.num_nodes()) {
      fail("rank " + std::to_string(rank) + " maps to node " +
           std::to_string(node) + " outside the allocation");
      continue;
    }
    ++procs_per_node[node];
    const Bitmap online = alloc.node(node).topo.online_pus();
    if (pus.empty()) {
      fail("rank " + std::to_string(rank) + " has an empty target");
      continue;
    }
    if (!pus.is_subset_of(online)) {
      Bitmap bad(pus);
      bad.and_not(online);
      fail("rank " + std::to_string(rank) + " targets offline PUs {" +
           bad.to_string() + "} on node " + std::to_string(node));
      continue;
    }
    const double share = 1.0 / static_cast<double>(pus.count());
    for (std::size_t pu : pus.to_vector()) {
      occupancy[node][pu] += share;
    }
  }

  if (mapping.procs_per_node.size() != alloc.num_nodes()) {
    fail("procs_per_node has " +
         std::to_string(mapping.procs_per_node.size()) + " entries for " +
         std::to_string(alloc.num_nodes()) + " nodes");
  } else {
    for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
      if (mapping.procs_per_node[n] != procs_per_node[n]) {
        fail("procs_per_node[" + std::to_string(n) + "] says " +
             std::to_string(mapping.procs_per_node[n]) + ", placements say " +
             std::to_string(procs_per_node[n]));
      }
    }
  }

  bool derived_pu_oversub = false;
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    for (double o : occupancy[n]) {
      // Strictly more load than one process-equivalent per PU (tolerate
      // floating rounding from the shared-target shares).
      if (o > 1.0 + 1e-9) derived_pu_oversub = true;
    }
  }
  if (derived_pu_oversub && !mapping.pu_oversubscribed) {
    fail("PU occupancy exceeds 1 but pu_oversubscribed is false");
  }

  bool derived_slot_oversub = false;
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    if (procs_per_node[n] > alloc.node(n).slots) derived_slot_oversub = true;
  }
  if (derived_slot_oversub != mapping.slot_oversubscribed) {
    fail("slot_oversubscribed flag disagrees with per-node counts");
  }
  return report;
}

}  // namespace lama
