// Per-node view of the hardware tree reduced to exactly the resource levels
// named in the process layout (§IV-B). Levels present in hardware but absent
// from the layout are pruned: their children are promoted to the nearest kept
// ancestor and renumbered. Levels named in the layout but absent from a
// node's hardware are bridged with a single pass-through vertex, so every
// pruned tree for a given layout has a uniform depth — this is what lets one
// maximal iteration space cover a heterogeneous system.
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "lama/layout.hpp"
#include "support/bitmap.hpp"
#include "topo/node_topology.hpp"

namespace lama {

class PrunedObject {
 public:
  PrunedObject(const TopoObject* source, ResourceType type)
      : source_(source), type_(type) {}

  PrunedObject(const PrunedObject&) = delete;
  PrunedObject& operator=(const PrunedObject&) = delete;

  [[nodiscard]] ResourceType type() const { return type_; }

  // Original hardware object, or nullptr for a pass-through vertex bridging
  // a level this node's hardware does not have.
  [[nodiscard]] const TopoObject* source() const { return source_; }

  // Online PUs (node-local indices) reachable under this vertex, after all
  // scheduler/OS restrictions. Empty means the vertex is unavailable.
  [[nodiscard]] const Bitmap& available_pus() const { return available_pus_; }
  [[nodiscard]] bool available() const { return !available_pus_.empty(); }

  [[nodiscard]] std::size_t num_children() const { return children_.size(); }
  [[nodiscard]] const PrunedObject& child(std::size_t i) const {
    return *children_[i];
  }
  [[nodiscard]] bool is_leaf() const { return children_.empty(); }

  // --- construction ---
  void reserve_children(std::size_t n) { children_.reserve(n); }
  PrunedObject& add_child(std::unique_ptr<PrunedObject> child);
  void set_available_pus(Bitmap pus) { available_pus_ = std::move(pus); }

 private:
  const TopoObject* source_;
  ResourceType type_;
  Bitmap available_pus_;
  std::vector<std::unique_ptr<PrunedObject>> children_;
};

class PrunedTree {
 public:
  // Builds the pruned view of one node for one layout. `levels` must be the
  // layout's node_levels_by_containment(); it may be empty (layout "n"), in
  // which case the tree is just the root.
  PrunedTree(const NodeTopology& topo,
             const std::vector<ResourceType>& levels);

  PrunedTree(PrunedTree&&) noexcept = default;
  PrunedTree& operator=(PrunedTree&&) noexcept = default;

  // Root vertex (represents the whole node).
  [[nodiscard]] const PrunedObject& root() const { return *root_; }

  // Kept levels below the root, outermost first (uniform across all pruned
  // trees built with the same layout).
  [[nodiscard]] const std::vector<ResourceType>& levels() const {
    return levels_;
  }

  // Maximum child count observed at each kept level: result[i] is the widest
  // fan-out from a level i-1 vertex (i = 0 fans out from the root). This is
  // the node's contribution to the maximal tree.
  [[nodiscard]] std::vector<std::size_t> level_widths() const;

  // Walks the coordinate (one index per kept level, outermost first).
  // Returns nullptr when the coordinate does not exist on this node. Takes
  // a span so the walk's scratch coordinate needs no per-lookup copy; the
  // initializer_list overload keeps literal coordinates convenient.
  [[nodiscard]] const PrunedObject* lookup(
      std::span<const std::size_t> coord) const;
  [[nodiscard]] const PrunedObject* lookup(
      std::initializer_list<std::size_t> coord) const {
    return lookup(std::span<const std::size_t>(coord.begin(), coord.size()));
  }

 private:
  std::unique_ptr<PrunedObject> root_;
  std::vector<ResourceType> levels_;
};

}  // namespace lama
