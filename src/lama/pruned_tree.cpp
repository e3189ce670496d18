#include "lama/pruned_tree.hpp"

#include <functional>

#include "support/error.hpp"

namespace lama {

PrunedObject& PrunedObject::add_child(std::unique_ptr<PrunedObject> child) {
  LAMA_ASSERT(child != nullptr);
  children_.push_back(std::move(child));
  return *children_.back();
}

namespace {

// Walks a real-topology subtree looking for the topmost objects at canonical
// depth `want`. Objects found exactly at `want` are hits; objects deeper than
// `want` reached without passing a `want` object are strays (this node's
// hardware lacks the level on that path, so the level will be bridged by a
// pass-through vertex).
void collect(const TopoObject& obj, int want,
             std::vector<const TopoObject*>& hits,
             std::vector<const TopoObject*>& strays) {
  const int depth = canonical_depth(obj.type());
  if (depth == want) {
    hits.push_back(&obj);
    return;
  }
  if (depth > want) {
    strays.push_back(&obj);
    return;
  }
  for (std::size_t i = 0; i < obj.num_children(); ++i) {
    collect(obj.child(i), want, hits, strays);
  }
}

// One pruned tree's construction. The hit and stray lists are scratch per
// level: a level's lists are read while deeper levels are expanded, and
// reused by the level's next parent.
struct Pruner {
  const std::vector<ResourceType>& levels;
  const Bitmap& online;
  std::vector<std::vector<const TopoObject*>> hits;
  std::vector<std::vector<const TopoObject*>> strays;

  Pruner(const std::vector<ResourceType>& l, const Bitmap& o)
      : levels(l), online(o), hits(l.size()), strays(l.size()) {}

  // Expands one pruned level under `parent`. `roots` are the real-topology
  // subtrees that the parent spans (a pass-through parent can span several).
  void build(PrunedObject& parent, std::span<const TopoObject* const> roots,
             std::size_t level_idx) {
    if (level_idx == levels.size()) return;
    const int want = canonical_depth(levels[level_idx]);
    std::vector<const TopoObject*>& level_hits = hits[level_idx];
    std::vector<const TopoObject*>& level_strays = strays[level_idx];
    level_hits.clear();
    level_strays.clear();
    for (const TopoObject* r : roots) {
      collect(*r, want, level_hits, level_strays);
    }
    parent.reserve_children(level_hits.size() +
                            (level_strays.empty() ? 0 : 1));

    for (std::size_t i = 0; i < level_hits.size(); ++i) {
      const TopoObject* hit = level_hits[i];
      PrunedObject& child = parent.add_child(
          std::make_unique<PrunedObject>(hit, levels[level_idx]));
      child.set_available_pus(online & hit->cpuset());
      build(child, {&level_hits[i], 1}, level_idx + 1);
    }
    if (!level_strays.empty()) {
      // The level is missing on these paths: bridge with one
      // pass-through vertex so tree depth stays uniform.
      PrunedObject& bridge = parent.add_child(
          std::make_unique<PrunedObject>(nullptr, levels[level_idx]));
      Bitmap avail;
      for (const TopoObject* s : level_strays) avail |= online & s->cpuset();
      bridge.set_available_pus(std::move(avail));
      build(bridge, level_strays, level_idx + 1);
    }
    if (level_hits.empty() && level_strays.empty()) {
      // The hardware bottomed out above this level (e.g. layout asks for
      // hardware threads on a node whose smallest unit is a core). The
      // parent itself is the smallest processing unit: bridge downward.
      PrunedObject& bridge = parent.add_child(
          std::make_unique<PrunedObject>(nullptr, levels[level_idx]));
      Bitmap avail = parent.available_pus();
      if (parent.source() != nullptr) {
        avail = online & parent.source()->cpuset();
      }
      bridge.set_available_pus(std::move(avail));
      build(bridge, roots, level_idx + 1);
    }
  }
};

}  // namespace

PrunedTree::PrunedTree(const NodeTopology& topo,
                       const std::vector<ResourceType>& levels)
    : levels_(levels) {
  const Bitmap& online = topo.online_pus();
  root_ = std::make_unique<PrunedObject>(&topo.root(), ResourceType::kNode);
  root_->set_available_pus(online);
  const TopoObject* const node = &topo.root();
  Pruner(levels_, online).build(*root_, {&node, 1}, 0);
}

std::vector<std::size_t> PrunedTree::level_widths() const {
  std::vector<std::size_t> widths(levels_.size(), 0);
  std::function<void(const PrunedObject&, std::size_t)> walk =
      [&](const PrunedObject& obj, std::size_t depth) {
        if (depth < widths.size()) {
          widths[depth] = std::max(widths[depth], obj.num_children());
        }
        for (std::size_t i = 0; i < obj.num_children(); ++i) {
          walk(obj.child(i), depth + 1);
        }
      };
  walk(*root_, 0);
  return widths;
}

const PrunedObject* PrunedTree::lookup(
    std::span<const std::size_t> coord) const {
  LAMA_ASSERT(coord.size() == levels_.size());
  const PrunedObject* obj = root_.get();
  for (std::size_t idx : coord) {
    if (idx >= obj->num_children()) return nullptr;
    obj = &obj->child(idx);
  }
  return obj;
}

}  // namespace lama
