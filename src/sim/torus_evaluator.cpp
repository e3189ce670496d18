#include "sim/torus_evaluator.hpp"

#include "support/error.hpp"

namespace lama {

TorusCostReport evaluate_on_torus(const Allocation& alloc,
                                  const TorusNetwork& net,
                                  const MappingResult& mapping,
                                  const TrafficPattern& pattern,
                                  const DistanceModel& model,
                                  const TorusCostModel& net_model) {
  if (alloc.num_nodes() != net.num_nodes()) {
    throw MappingError("allocation and torus sizes differ");
  }
  if (static_cast<std::size_t>(pattern.np) != mapping.num_procs()) {
    throw MappingError("pattern '" + pattern.name + "' has " +
                       std::to_string(pattern.np) + " ranks but the mapping " +
                       std::to_string(mapping.num_procs()));
  }

  std::vector<std::size_t> node_of(mapping.num_procs());
  std::vector<std::size_t> pu_of(mapping.num_procs());
  for (std::size_t r = 0; r < mapping.num_procs(); ++r) {
    node_of[r] = mapping.node(r);
    pu_of[r] = mapping.representative_pu(r);
  }

  TorusCostReport report;
  std::vector<double> rank_ns(mapping.num_procs(), 0.0);
  std::vector<std::size_t> link_bytes(net.num_links(), 0);

  for (const Message& m : pattern.messages) {
    const std::size_t src = static_cast<std::size_t>(m.src);
    const std::size_t dst = static_cast<std::size_t>(m.dst);
    double ns = 0.0;
    if (node_of[src] == node_of[dst]) {
      ++report.intra_node_messages;
      const NodeTopology& topo = alloc.node(node_of[src]).topo;
      ns = model
               .level_cost(DistanceModel::sharing_level(topo, pu_of[src],
                                                        pu_of[dst]))
               .message_ns(m.bytes);
    } else {
      ++report.inter_node_messages;
      const int hops = net.hops(node_of[src], node_of[dst]);
      report.total_hop_count += static_cast<std::size_t>(hops);
      report.max_hops = std::max(report.max_hops, hops);
      ns = net_model.message_ns(hops, m.bytes);
      for (const TorusNetwork::Link& link :
           net.route(node_of[src], node_of[dst])) {
        link_bytes[net.link_index(link)] += m.bytes;
      }
    }
    report.total_ns += ns;
    rank_ns[src] += ns;
    rank_ns[dst] += ns;
  }

  for (double ns : rank_ns) {
    report.max_rank_ns = std::max(report.max_rank_ns, ns);
  }
  std::size_t used_total = 0;
  for (std::size_t bytes : link_bytes) {
    if (bytes == 0) continue;
    ++report.links_used;
    used_total += bytes;
    report.max_link_bytes = std::max(report.max_link_bytes, bytes);
  }
  if (report.links_used > 0) {
    report.avg_link_bytes =
        static_cast<double>(used_total) / static_cast<double>(report.links_used);
  }
  if (report.inter_node_messages > 0) {
    report.avg_hops = static_cast<double>(report.total_hop_count) /
                      static_cast<double>(report.inter_node_messages);
  }
  report.bottleneck_ns = static_cast<double>(report.max_link_bytes) /
                         net_model.bandwidth_gb_s;
  return report;
}

}  // namespace lama
