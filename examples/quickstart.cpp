// Quickstart: map and bind a 24-process job onto a two-node cluster with the
// paper's Figure 2 layout ("scbnh"), then print where every rank landed.
//
//   $ ./quickstart
//
// This walks the full pipeline a resource manager / MPI runtime would run:
// describe the hardware, allocate it, pick a process layout, map, bind,
// launch, report.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "rte/runtime.hpp"
#include "support/table.hpp"

int main() {
  using namespace lama;

  // Two identical nodes: 2 sockets x 4 cores x 2 hardware threads, exactly
  // the machines drawn in the paper's Figure 2.
  const Cluster cluster = Cluster::homogeneous(2, "socket:2 core:4 pu:2");
  const Allocation alloc = allocate_all(cluster);
  std::printf("cluster: %zu x %s\n\n", cluster.num_nodes(),
              cluster.node(0).topo.shape_string().c_str());

  // Level-3 CLI: the LAMA layout "scbnh" scatters ranks across sockets,
  // then cores, then boards, then nodes, and uses hardware threads last.
  const JobSpec job{.np = 24, .name = "quickstart"};
  LaunchPlan plan =
      plan_job(alloc, job, {"--map-by", "lama:scbnh", "--bind-to", "core"});
  plan.launch(alloc);

  std::printf("%s\n", plan.report_bindings(alloc).c_str());

  // Regenerate the Figure 2 grid: ranks by (node, socket, core, thread).
  TextTable grid({"node", "socket", "core", "thread 0", "thread 1"});
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    const NodeTopology& topo = alloc.node(n).topo;
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t c = 0; c < 4; ++c) {
        std::string cell[2] = {"-", "-"};
        for (const LaunchedProcess& p : plan.procs()) {
          if (p.node != n) continue;
          const std::size_t pu = plan.mapping().representative_pu(
              static_cast<std::size_t>(p.rank));
          if (pu / 8 == s && (pu % 8) / 2 == c) {
            cell[pu % 2] = std::to_string(p.rank);
          }
        }
        grid.add_row({topo.name(), std::to_string(s), std::to_string(c),
                      cell[0], cell[1]});
      }
    }
  }
  std::printf("Figure 2 mapping grid (layout scbnh, 24 processes):\n%s",
              grid.to_string().c_str());
  return 0;
}
