// The hardware topology of one server node, playing the role hwloc plays in
// the paper's implementation: a tree of resources from the node root down to
// the smallest processing unit (PU), with per-object availability bits that
// model scheduler/OS restrictions (off-lined sockets, cores, threads).
//
// Leaves are the node's smallest processing units — hardware threads when the
// tree models them, otherwise cores (matching the paper: "the LAMA will map
// the process to the smallest processing unit available"). PU indices are
// node-local and index the leaves left-to-right.
//
// Copies share one tree. The tree (objects, levels, leaves, and the values
// derived from them: the online PU set and the content hash) is immutable
// while more than one NodeTopology holds it, so copying a topology, or an
// Allocation of many, costs one reference count per node, and readers on any
// thread need no lock. A write (set_object_disabled, restrict_pus,
// clear_restrictions) first clones the tree when another copy holds it, then
// edits its own tree and recomputes the derived values; the other copies
// never see it. A TopoObject pointer or reference therefore shows a write
// only when no other copy held the tree, and must not be relied on to
// follow one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/bitmap.hpp"
#include "topo/object.hpp"
#include "topo/resource_type.hpp"

namespace lama {

class NodeTopology {
 public:
  // Builds a uniform tree from a synthetic description: whitespace-separated
  // `level:count` tokens in canonical containment order, e.g.
  //   "board:1 socket:2 numa:1 l2:4 core:4 pu:2"
  // Levels may be omitted (the tree simply lacks them); at least one of
  // core/pu must be present. Throws ParseError on malformed descriptions.
  static NodeTopology synthetic(const std::string& description,
                                std::string name = "node");

  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] const TopoObject& root() const { return *tree_->root; }

  // Resource levels present in this tree, outermost first (always starts
  // with kNode and ends with the leaf type).
  [[nodiscard]] const std::vector<ResourceType>& levels() const {
    return tree_->levels;
  }
  [[nodiscard]] bool has_level(ResourceType t) const;

  // The smallest processing unit type (kHwThread or kCore).
  [[nodiscard]] ResourceType leaf_type() const { return tree_->levels.back(); }

  // All objects of a type in logical (level-index) order; empty when the
  // level is absent.
  [[nodiscard]] std::vector<const TopoObject*> objects_at(
      ResourceType t) const;
  [[nodiscard]] std::size_t count(ResourceType t) const;

  // Total PUs (leaves), ignoring restrictions.
  [[nodiscard]] std::size_t pu_count() const;

  // PUs that are currently usable: neither they nor any ancestor disabled.
  // Cached with the tree.
  [[nodiscard]] const Bitmap& online_pus() const { return tree_->online; }

  // fnv1a64(serialize_topology(*this)): a hash of the shape, OS indices and
  // disabled flags, but not the name. Cached with the tree.
  [[nodiscard]] std::uint64_t content_hash() const {
    return tree_->content_hash;
  }

  // True when both hold the very same tree (one is a copy of the other and
  // neither has been written since).
  [[nodiscard]] bool shares_tree_with(const NodeTopology& other) const {
    return tree_ == other.tree_;
  }

  // True when both trees have the same shape, OS indices and disabled
  // flags — exactly when their serializations are equal. O(1) for shared
  // trees and for different content hashes.
  [[nodiscard]] bool same_content(const NodeTopology& other) const;

  // Leaf object for a PU index.
  [[nodiscard]] const TopoObject& pu(std::size_t index) const;

  // Nearest ancestor of a PU at the given type, or nullptr when the level is
  // absent from this tree.
  [[nodiscard]] const TopoObject* ancestor_of_pu(std::size_t pu_index,
                                                 ResourceType t) const;

  // --- restrictions (scheduler / OS) ---
  // Each write clones a tree another copy holds, and none of them clones
  // when it would change nothing.
  // Disable (or re-enable) the level_index-th object of a type.
  void set_object_disabled(ResourceType t, std::size_t level_index,
                           bool disabled);
  // Disable every PU outside `allowed` (allocation masks).
  void restrict_pus(const Bitmap& allowed);
  // Re-enable everything.
  void clear_restrictions();

  // One-line shape summary, e.g. "node(2 sockets x 4 cores x 2 pus)".
  [[nodiscard]] std::string shape_string() const;

  // Multi-line ASCII rendering of the tree (for examples / debugging).
  [[nodiscard]] std::string render() const;

  // --- incremental construction of irregular trees ---
  class Builder {
   public:
    explicit Builder(std::string name = "node");
    // Opens a child of the current object; must respect canonical containment
    // order (each begin goes strictly deeper than its parent).
    Builder& begin(ResourceType t, int os_index = -1);
    Builder& end();
    // Shorthand: begin+end a leaf.
    Builder& leaf(ResourceType t, int os_index = -1);
    // Marks the currently open object disabled (scheduler/OS restriction).
    Builder& disable();
    [[nodiscard]] NodeTopology build();

   private:
    std::unique_ptr<TopoObject> root_;
    std::vector<TopoObject*> stack_;
    std::string name_;
  };

 private:
  // The objects and what is derived from them. Shared by every copy of a
  // NodeTopology and written only by a sole holder.
  struct Tree {
    std::unique_ptr<TopoObject> root;
    std::vector<ResourceType> levels;
    std::vector<TopoObject*> leaves;  // PU index -> leaf
    Bitmap online;                    // see online_pus()
    std::uint64_t content_hash = 0;   // see content_hash()
  };

  // Builds a topology around a finished object tree: computes cpusets,
  // indices, the level list, and the derived values.
  NodeTopology(std::string name, std::unique_ptr<TopoObject> root);
  // The tree to write: this topology's own, cloned first when shared.
  Tree& own_tree();
  // Recomputes cpusets, indices, and the level list.
  static void finalize(Tree& tree);
  // Recomputes the online set and the content hash of this topology's own
  // tree after a write.
  void refresh();

  std::string name_;
  std::shared_ptr<Tree> tree_;
};

}  // namespace lama
