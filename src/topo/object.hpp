// A single vertex in a hardware-topology tree: one socket, one cache, one
// core, ... Owned exclusively by its parent (the NodeTopology owns the root).
#pragma once

#include <memory>
#include <vector>

#include "support/bitmap.hpp"
#include "topo/resource_type.hpp"

namespace lama {

class TopoObject {
 public:
  TopoObject(ResourceType type, int os_index)
      : type_(type), os_index_(os_index) {}

  TopoObject(const TopoObject&) = delete;
  TopoObject& operator=(const TopoObject&) = delete;

  [[nodiscard]] ResourceType type() const { return type_; }

  // Index among siblings under the same parent (0-based, logical).
  [[nodiscard]] int sibling_index() const { return sibling_index_; }

  // Index among all objects of this type within the node (0-based, logical).
  [[nodiscard]] int level_index() const { return level_index_; }

  // Platform-assigned identifier; may be non-contiguous across the node.
  [[nodiscard]] int os_index() const { return os_index_; }

  // Set of leaf processing units (node-local indices) spanned by this object,
  // ignoring availability restrictions.
  [[nodiscard]] const Bitmap& cpuset() const { return cpuset_; }

  // True when the scheduler/OS has off-lined this object specifically.
  // Availability of a PU additionally requires every ancestor to be enabled.
  [[nodiscard]] bool disabled() const { return disabled_; }

  [[nodiscard]] const TopoObject* parent() const { return parent_; }
  [[nodiscard]] std::size_t num_children() const { return children_.size(); }
  [[nodiscard]] const TopoObject& child(std::size_t i) const {
    return *children_[i];
  }
  [[nodiscard]] bool is_leaf() const { return children_.empty(); }

  // Nearest ancestor (possibly this object) of the given type, or nullptr.
  [[nodiscard]] const TopoObject* ancestor(ResourceType t) const;

  // --- mutation (used by builders and NodeTopology only) ---
  TopoObject& add_child(std::unique_ptr<TopoObject> child);
  void set_disabled(bool disabled) { disabled_ = disabled; }
  void set_level_index(int i) { level_index_ = i; }
  void set_cpuset(Bitmap b) { cpuset_ = std::move(b); }
  [[nodiscard]] TopoObject& mutable_child(std::size_t i) {
    return *children_[i];
  }

 private:
  ResourceType type_;
  int sibling_index_ = 0;
  int level_index_ = 0;
  int os_index_ = 0;
  Bitmap cpuset_;
  bool disabled_ = false;
  TopoObject* parent_ = nullptr;
  std::vector<std::unique_ptr<TopoObject>> children_;
};

}  // namespace lama
