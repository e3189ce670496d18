// Heterogeneous-system walk-through (§IV-B of the paper): three different
// node generations plus scheduler/OS restrictions, one maximal tree, one
// layout — the mapper skips coordinates that do not exist or are off-lined.
//
//   $ ./heterogeneous_cluster
#include <cstdio>

#include "cluster/cluster.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "support/table.hpp"
#include "topo/presets.hpp"

int main() {
  using namespace lama;

  // A cluster collected over time: a new SMT box, an old quad-core, and a
  // lopsided node (6 + 2 cores), as heterogeneous systems often are.
  Cluster cluster;
  cluster.add_node(NodeTopology::synthetic("socket:2 core:4 pu:2", "new"));
  cluster.add_node(NodeTopology::synthetic("socket:1 core:4", "old"));
  cluster.add_node(presets::lopsided_node("odd"));

  Allocation alloc = allocate_all(cluster);
  // The scheduler off-lined socket 1 of the new node for another job, and
  // the OS disabled one core of the old node for maintenance (§III-A).
  alloc.mutable_node(0).topo.set_object_disabled(ResourceType::kSocket, 1,
                                                 true);
  alloc.mutable_node(1).topo.set_object_disabled(ResourceType::kCore, 2, true);

  std::printf("allocated hardware (after restrictions):\n");
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    const NodeTopology& topo = alloc.node(i).topo;
    std::printf("  %-20s online PUs: %s\n", topo.shape_string().c_str(),
                topo.online_pus().to_string().c_str());
  }

  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  std::printf("\nmaximal tree widths for layout %s:\n",
              layout.to_string().c_str());
  for (ResourceType t : layout.order()) {
    std::printf("  %-18s %zu\n", std::string(resource_name(t)).c_str(),
                mtree.width_of(t));
  }
  std::printf("  capacity: %zu online PUs, iteration space %zu\n",
              mtree.online_pu_capacity(), mtree.iteration_space());

  const std::size_t np = mtree.online_pu_capacity();
  const MappingResult m = lama_map(alloc, layout, {.np = np});
  std::printf(
      "\nmapped %zu processes in %zu sweep(s); skipped %zu nonexistent or "
      "unavailable coordinates\n\n",
      m.num_procs(), m.sweeps, m.skipped);

  TextTable table({"rank", "node", "target PUs"});
  for (std::size_t r = 0; r < m.num_procs(); ++r) {
    table.add_row({std::to_string(r), alloc.node(m.node(r)).topo.name(),
                   m.pus(r).to_string()});
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nprocesses per node:");
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    std::printf(" %s=%zu", alloc.node(i).topo.name().c_str(),
                m.procs_per_node[i]);
  }
  std::printf("\n");
  return 0;
}
