#include "sim/evaluator.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace lama {

SlotPricer::SlotPricer(const Allocation& alloc, const MappingResult& mapping,
                       const DistanceModel& model)
    : network_(model.network_cost()),
      node_link_(model.level_cost(ResourceType::kNode)) {
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    stride_ = std::max(stride_, alloc.node(n).topo.levels().size());
  }
  // Per node: each level's deepest-first index, and its cost.
  std::vector<std::array<int, kNumResourceTypes>> index_of(alloc.num_nodes());
  level_cost_.resize(alloc.num_nodes() * stride_);
  level_count_.resize(alloc.num_nodes());
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    const std::vector<ResourceType>& levels = alloc.node(n).topo.levels();
    index_of[n].fill(-1);
    level_count_[n] = static_cast<std::uint8_t>(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const ResourceType level = levels[levels.size() - 1 - i];
      index_of[n][static_cast<std::size_t>(canonical_depth(level))] =
          static_cast<int>(i);
      level_cost_[n * stride_ + i] = model.level_cost(level);
    }
  }

  const std::size_t slots = mapping.num_procs();
  node_.resize(slots);
  pu_.resize(slots);
  ancestors_.assign(slots * stride_, nullptr);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t n = mapping.node(s);
    const std::size_t pu = mapping.representative_pu(s);
    node_[s] = static_cast<std::uint32_t>(n);
    pu_[s] = static_cast<std::uint32_t>(pu);
    // A PU's ancestor chain holds each level at most once, so the nearest
    // ancestor of a level is the one object of that type on the chain.
    for (const TopoObject* obj = &alloc.node(n).topo.pu(pu); obj != nullptr;
         obj = obj->parent()) {
      const int i =
          index_of[n][static_cast<std::size_t>(canonical_depth(obj->type()))];
      if (i >= 0) ancestors_[s * stride_ + static_cast<std::size_t>(i)] = obj;
    }
  }
}

const LinkCost& SlotPricer::shared_link(std::size_t slot_a,
                                        std::size_t slot_b) const {
  const std::size_t n = node_[slot_a];
  const LinkCost* cost = &level_cost_[n * stride_];
  // One PU: the leaf level, which is the node's deepest.
  if (pu_[slot_a] == pu_[slot_b]) return cost[0];
  const TopoObject* const* a = &ancestors_[slot_a * stride_];
  const TopoObject* const* b = &ancestors_[slot_b * stride_];
  for (std::size_t i = 0; i < level_count_[n]; ++i) {
    if (a[i] != nullptr && a[i] == b[i]) return cost[i];
  }
  return node_link_;
}

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
