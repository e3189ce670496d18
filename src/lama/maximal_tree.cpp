#include "lama/maximal_tree.hpp"

#include <unordered_map>

#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace lama {

MaximalTree::MaximalTree(const Allocation& alloc,
                         const ProcessLayout& layout) {
  const obs::SpanScope span(obs::Stage::kBuild,
                            static_cast<std::uint32_t>(alloc.num_nodes()));
  node_levels_ = layout.node_levels_by_containment();

  for (std::size_t i = 0; i < kNumResourceTypes; ++i) widths_[i] = 1;
  if (layout.contains(ResourceType::kNode)) {
    widths_[canonical_depth(ResourceType::kNode)] = alloc.num_nodes();
  }

  // Equal contents are found by content hash and confirmed by comparing
  // the trees, so a hash collision never merges two different nodes.
  // `first` keeps the node each distinct tree was pruned from.
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_hash;
  std::vector<std::size_t> first;
  of_node_.reserve(alloc.num_nodes());
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    const NodeTopology& topo = alloc.node(n).topo;
    const auto [lo, hi] = by_hash.equal_range(topo.content_hash());
    auto it = lo;
    while (it != hi && !alloc.node(first[it->second]).topo.same_content(topo)) {
      ++it;
    }
    if (it != hi) {
      of_node_.push_back(it->second);
    } else {
      const auto index = static_cast<std::uint32_t>(distinct_.size());
      distinct_.emplace_back(topo, node_levels_);
      first.push_back(n);
      by_hash.emplace(topo.content_hash(), index);
      of_node_.push_back(index);
      const std::vector<std::size_t> widths = distinct_.back().level_widths();
      for (std::size_t i = 0; i < node_levels_.size(); ++i) {
        std::size_t& w = widths_[canonical_depth(node_levels_[i])];
        w = std::max(w, widths[i]);
      }
    }
    capacity_ += topo.online_pus().count();
  }
}

std::size_t MaximalTree::width_of(ResourceType t) const {
  return widths_[canonical_depth(t)];
}

std::size_t MaximalTree::iteration_space() const {
  std::size_t space = 1;
  for (ResourceType t : all_resource_types()) space *= width_of(t);
  return space;
}

}  // namespace lama
