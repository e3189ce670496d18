#include "sim/evaluator.hpp"

#include "support/error.hpp"

namespace lama {

CostReport evaluate_mapping(const Allocation& alloc,
                            const MappingResult& mapping,
                            const TrafficPattern& pattern,
                            const DistanceModel& model) {
  if (static_cast<std::size_t>(pattern.np) != mapping.num_procs()) {
    throw MappingError("pattern '" + pattern.name + "' has " +
                       std::to_string(pattern.np) + " ranks but the mapping " +
                       std::to_string(mapping.num_procs()));
  }

  // Rank -> (node, representative PU).
  std::vector<std::size_t> node_of(mapping.num_procs());
  std::vector<std::size_t> pu_of(mapping.num_procs());
  for (std::size_t r = 0; r < mapping.num_procs(); ++r) {
    node_of[r] = mapping.node(r);
    pu_of[r] = mapping.representative_pu(r);
  }

  CostReport report;
  std::vector<double> rank_ns(mapping.num_procs(), 0.0);
  std::vector<std::size_t> nic_bytes(alloc.num_nodes(), 0);

  for (const Message& m : pattern.messages) {
    const std::size_t src = static_cast<std::size_t>(m.src);
    const std::size_t dst = static_cast<std::size_t>(m.dst);
    LAMA_ASSERT(src < node_of.size() && dst < node_of.size());
    const double ns = model.message_ns(alloc, node_of[src], pu_of[src],
                                       node_of[dst], pu_of[dst], m.bytes);
    report.total_ns += ns;
    rank_ns[src] += ns;
    rank_ns[dst] += ns;
    if (node_of[src] == node_of[dst]) {
      ++report.intra_node_messages;
      const ResourceType level = DistanceModel::sharing_level(
          alloc.node(node_of[src]).topo, pu_of[src], pu_of[dst]);
      ++report.messages_by_level[canonical_depth(level)];
    } else {
      ++report.inter_node_messages;
      nic_bytes[node_of[src]] += m.bytes;
      nic_bytes[node_of[dst]] += m.bytes;
    }
  }

  for (double ns : rank_ns) report.max_rank_ns = std::max(report.max_rank_ns, ns);
  for (std::size_t b : nic_bytes) {
    report.max_nic_bytes = std::max(report.max_nic_bytes, b);
    report.total_nic_bytes += b;
  }
  if (!pattern.messages.empty()) {
    report.avg_message_ns =
        report.total_ns / static_cast<double>(pattern.messages.size());
  }
  return report;
}

}  // namespace lama
