// Prices a traffic pattern under a mapping: the quantitative lens the paper's
// motivating claims are checked with. Each rank is represented by the first
// PU of its placement; every message is priced by the distance model, and
// congestion is tracked as the byte volume crossing each node's network
// interface.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/mapping.hpp"
#include "sim/distance_model.hpp"
#include "sim/traffic.hpp"

namespace lama {

struct CostReport {
  double total_ns = 0.0;     // sum over all messages
  double max_rank_ns = 0.0;  // busiest rank (send + receive cost)
  double avg_message_ns = 0.0;

  std::size_t intra_node_messages = 0;
  std::size_t inter_node_messages = 0;

  // Message count by sharing level (canonical depth index); inter-node
  // messages are not included here.
  std::array<std::size_t, kNumResourceTypes> messages_by_level{};

  // Bytes entering+leaving each node's NIC; max is the congestion hot spot.
  std::size_t max_nic_bytes = 0;
  std::size_t total_nic_bytes = 0;
};

// DistanceModel::message_ns between the slots of one mapping, answered from
// per-slot ancestor arrays instead of a parent walk per message: building
// it walks each slot's PU up to its node once, after which a pair costs a
// node comparison and, on a shared node, one pointer comparison per level.
// Every price is bitwise the one message_ns gives for the slots' (node,
// representative PU) pairs.
class SlotPricer {
 public:
  SlotPricer(const Allocation& alloc, const MappingResult& mapping,
             const DistanceModel& model);

  [[nodiscard]] std::size_t node(std::size_t slot) const {
    return node_[slot];
  }

  [[nodiscard]] double pair_ns(std::size_t slot_a, std::size_t slot_b,
                               std::size_t bytes) const {
    if (node_[slot_a] != node_[slot_b]) return network_.message_ns(bytes);
    return shared_link(slot_a, slot_b).message_ns(bytes);
  }

 private:
  // The sharing level's cost, as DistanceModel::sharing_level finds it.
  [[nodiscard]] const LinkCost& shared_link(std::size_t slot_a,
                                            std::size_t slot_b) const;

  LinkCost network_;
  LinkCost node_link_;
  std::size_t stride_ = 0;  // the most levels any node has
  std::vector<std::uint32_t> node_;
  std::vector<std::uint32_t> pu_;
  // Per slot, stride_ apart: the PU's ancestor at each level of its node,
  // deepest level first; null where the level is absent above that PU.
  std::vector<const TopoObject*> ancestors_;
  // Per node, stride_ apart: each level's cost, deepest first.
  std::vector<LinkCost> level_cost_;
  std::vector<std::uint8_t> level_count_;  // per node
};

// Evaluates the pattern under a mapping. The pattern's np must equal the
// mapping's process count; throws MappingError otherwise.
CostReport evaluate_mapping(const Allocation& alloc,
                            const MappingResult& mapping,
                            const TrafficPattern& pattern,
                            const DistanceModel& model);

}  // namespace lama
