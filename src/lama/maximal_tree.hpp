// The maximal tree of §IV-B: the union of all allocated nodes' (pruned)
// topologies. It defines one iteration space — a width per layout level —
// that covers every node in a heterogeneous system; coordinates that do not
// exist on a particular node are skipped by the mapper at lookup time.
//
// Identical nodes are the common case, so each distinct node topology is
// pruned once: nodes whose topologies have equal content (shape, OS
// indices, disabled flags) share one PrunedTree. A PrunedObject therefore
// does not identify a node by itself — whatever counts per vertex must
// count per (node, vertex). The tree reads the allocation's topologies
// (pruned objects point into the first node of each distinct content) and
// must not outlive the allocation it was built from.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/layout.hpp"
#include "lama/pruned_tree.hpp"

namespace lama {

class MaximalTree {
 public:
  MaximalTree(const Allocation& alloc, const ProcessLayout& layout);

  // Within-node levels kept by the layout, outermost first.
  [[nodiscard]] const std::vector<ResourceType>& node_levels() const {
    return node_levels_;
  }

  [[nodiscard]] std::size_t num_nodes() const { return of_node_.size(); }
  // The node's pruned tree, shared by every node of equal content.
  [[nodiscard]] const PrunedTree& pruned(std::size_t node) const {
    return distinct_[of_node_[node]];
  }
  // How many pruned trees were built: one per distinct node content.
  [[nodiscard]] std::size_t num_distinct() const { return distinct_.size(); }

  // Loop width for a resource level: the number of allocated nodes for
  // kNode, otherwise the maximum fan-out of that level across all nodes.
  // Levels absent from the layout report width 1 (a pinned coordinate).
  [[nodiscard]] std::size_t width_of(ResourceType t) const;

  // Product of all level widths: the size of the full iteration space.
  [[nodiscard]] std::size_t iteration_space() const;

  // Total number of PUs that are online across the allocation — the capacity
  // before any processing unit must be shared.
  [[nodiscard]] std::size_t online_pu_capacity() const { return capacity_; }

 private:
  std::vector<ResourceType> node_levels_;
  std::vector<PrunedTree> distinct_;
  std::vector<std::uint32_t> of_node_;  // node -> index into distinct_
  std::size_t widths_[kNumResourceTypes];
  std::size_t capacity_ = 0;
};

}  // namespace lama
