#include "topo/node_topology.hpp"

#include <functional>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "topo/serialize.hpp"

namespace lama {

namespace {

// Deep copy preserving structure, os indices, and disabled flags.
std::unique_ptr<TopoObject> clone_subtree(const TopoObject& src) {
  auto copy = std::make_unique<TopoObject>(src.type(), src.os_index());
  copy->set_disabled(src.disabled());
  for (std::size_t i = 0; i < src.num_children(); ++i) {
    copy->add_child(clone_subtree(src.child(i)));
  }
  return copy;
}

// The level_index-th object of type t under `obj`, or nullptr.
TopoObject* find_object(TopoObject& obj, ResourceType t,
                        std::size_t level_index) {
  if (obj.type() == t) {
    return obj.level_index() == static_cast<int>(level_index) ? &obj
                                                              : nullptr;
  }
  for (std::size_t i = 0; i < obj.num_children(); ++i) {
    if (TopoObject* hit = find_object(obj.mutable_child(i), t, level_index)) {
      return hit;
    }
  }
  return nullptr;
}

bool any_disabled(const TopoObject& obj) {
  if (obj.disabled()) return true;
  for (std::size_t i = 0; i < obj.num_children(); ++i) {
    if (any_disabled(obj.child(i))) return true;
  }
  return false;
}

void enable_all(TopoObject& obj) {
  obj.set_disabled(false);
  for (std::size_t i = 0; i < obj.num_children(); ++i) {
    enable_all(obj.mutable_child(i));
  }
}

// What serialize_topology() writes: type, OS index, disabled flag and the
// children in order.
bool same_objects(const TopoObject& a, const TopoObject& b) {
  if (a.type() != b.type() || a.os_index() != b.os_index() ||
      a.disabled() != b.disabled() || a.num_children() != b.num_children()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_children(); ++i) {
    if (!same_objects(a.child(i), b.child(i))) return false;
  }
  return true;
}

void collect_online(const TopoObject& obj, Bitmap& online) {
  if (obj.disabled()) return;
  if (obj.is_leaf()) {
    online |= obj.cpuset();
    return;
  }
  for (std::size_t i = 0; i < obj.num_children(); ++i) {
    collect_online(obj.child(i), online);
  }
}

}  // namespace

NodeTopology::NodeTopology(std::string name, std::unique_ptr<TopoObject> root)
    : name_(std::move(name)), tree_(std::make_shared<Tree>()) {
  tree_->root = std::move(root);
  finalize(*tree_);
  refresh();
}

NodeTopology::Tree& NodeTopology::own_tree() {
  // A count of 1 means no other copy holds the tree, and none can appear
  // during the write: a copy is made by reading this object, which must not
  // race with writing it.
  if (tree_.use_count() > 1) {
    auto copy = std::make_shared<Tree>();
    copy->root = clone_subtree(*tree_->root);
    finalize(*copy);
    tree_ = std::move(copy);
  }
  return *tree_;
}

bool NodeTopology::same_content(const NodeTopology& other) const {
  if (tree_ == other.tree_) return true;
  return tree_->content_hash == other.tree_->content_hash &&
         same_objects(*tree_->root, *other.tree_->root);
}

NodeTopology NodeTopology::synthetic(const std::string& description,
                                     std::string name) {
  // Parse `level:count` tokens, validating canonical order.
  std::vector<std::pair<ResourceType, std::size_t>> spec;
  int last_depth = canonical_depth(ResourceType::kNode);
  for (const std::string& token : split_ws(description)) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      throw ParseError("synthetic token missing ':': '" + token + "'");
    }
    const std::string keyword = to_lower(token.substr(0, colon));
    const auto type = resource_from_keyword(keyword);
    if (!type) {
      throw ParseError("unknown synthetic level: '" + keyword + "'");
    }
    if (*type == ResourceType::kNode) {
      throw ParseError("synthetic description must not include 'node'");
    }
    const std::size_t count =
        parse_size(token.substr(colon + 1), "synthetic level count");
    if (count == 0) {
      throw ParseError("synthetic level count must be positive: '" + token +
                       "'");
    }
    if (canonical_depth(*type) <= last_depth) {
      throw ParseError(
          "synthetic levels must follow canonical containment order "
          "(board > socket > numa > l3 > l2 > l1 > core > pu): '" +
          token + "'");
    }
    last_depth = canonical_depth(*type);
    spec.emplace_back(*type, count);
  }
  if (spec.empty()) {
    throw ParseError("empty synthetic description");
  }
  const ResourceType leaf = spec.back().first;
  if (leaf != ResourceType::kCore && leaf != ResourceType::kHwThread) {
    throw ParseError(
        "synthetic description must end with a processing level (core or "
        "pu)");
  }

  auto root = std::make_unique<TopoObject>(ResourceType::kNode, 0);

  // Expand the uniform tree; os indices count objects per level.
  std::vector<int> next_os(spec.size(), 0);
  std::function<void(TopoObject&, std::size_t)> expand =
      [&](TopoObject& parent, std::size_t depth) {
        if (depth == spec.size()) return;
        for (std::size_t i = 0; i < spec[depth].second; ++i) {
          TopoObject& child = parent.add_child(std::make_unique<TopoObject>(
              spec[depth].first, next_os[depth]++));
          expand(child, depth + 1);
        }
      };
  expand(*root, 0);
  return NodeTopology(std::move(name), std::move(root));
}

void NodeTopology::finalize(Tree& tree) {
  LAMA_ASSERT(tree.root != nullptr && tree.leaves.empty());
  std::vector<ResourceType>& levels = tree.levels;
  std::vector<TopoObject*>& leaves = tree.leaves;

  // Collect present levels (set of types) and leaves in DFS order.
  bool present[kNumResourceTypes] = {};
  std::vector<int> next_level_index(kNumResourceTypes, 0);
  std::function<void(TopoObject&)> walk = [&](TopoObject& obj) {
    present[canonical_depth(obj.type())] = true;
    obj.set_level_index(next_level_index[canonical_depth(obj.type())]++);
    if (obj.is_leaf()) {
      const std::size_t pu_index = leaves.size();
      leaves.push_back(&obj);
      obj.set_cpuset(Bitmap::single(pu_index));
      return;
    }
    Bitmap span;
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      walk(obj.mutable_child(i));
      span |= obj.child(i).cpuset();
    }
    obj.set_cpuset(std::move(span));
  };
  walk(*tree.root);

  for (ResourceType t : all_resource_types()) {
    if (present[canonical_depth(t)]) levels.push_back(t);
  }
  LAMA_ASSERT(!leaves.empty());
  // All leaves must share one type (the smallest processing unit).
  for (const TopoObject* leaf : leaves) {
    if (leaf->type() != leaves.front()->type()) {
      throw ParseError("topology leaves must all be the same resource type");
    }
  }
  if (levels.back() != leaves.front()->type()) {
    throw ParseError("leaf type must be the deepest level in the tree");
  }
}

void NodeTopology::refresh() {
  tree_->online.clear_all();
  collect_online(root(), tree_->online);
  tree_->content_hash = fnv1a64(serialize_topology(*this));
}

bool NodeTopology::has_level(ResourceType t) const {
  for (ResourceType level : levels()) {
    if (level == t) return true;
  }
  return false;
}

std::vector<const TopoObject*> NodeTopology::objects_at(ResourceType t) const {
  std::vector<const TopoObject*> out;
  std::function<void(const TopoObject&)> walk = [&](const TopoObject& obj) {
    if (obj.type() == t) {
      out.push_back(&obj);
      return;  // a type never nests inside itself
    }
    for (std::size_t i = 0; i < obj.num_children(); ++i) walk(obj.child(i));
  };
  walk(root());
  return out;
}

std::size_t NodeTopology::count(ResourceType t) const {
  return objects_at(t).size();
}

std::size_t NodeTopology::pu_count() const { return tree_->leaves.size(); }

const TopoObject& NodeTopology::pu(std::size_t index) const {
  LAMA_ASSERT(index < tree_->leaves.size());
  return *tree_->leaves[index];
}

const TopoObject* NodeTopology::ancestor_of_pu(std::size_t pu_index,
                                               ResourceType t) const {
  return pu(pu_index).ancestor(t);
}

void NodeTopology::set_object_disabled(ResourceType t, std::size_t level_index,
                                       bool disabled) {
  const TopoObject* obj = find_object(*tree_->root, t, level_index);
  if (obj == nullptr) {
    throw MappingError("no " + std::string(resource_name(t)) + " with index " +
                       std::to_string(level_index) + " on " + name_);
  }
  if (obj->disabled() == disabled) return;
  Tree& tree = own_tree();
  find_object(*tree.root, t, level_index)->set_disabled(disabled);
  refresh();
}

void NodeTopology::restrict_pus(const Bitmap& allowed) {
  const std::vector<TopoObject*>& leaves = tree_->leaves;
  bool changes = false;
  for (std::size_t i = 0; i < leaves.size() && !changes; ++i) {
    changes = !allowed.test(i) && !leaves[i]->disabled();
  }
  if (!changes) return;
  Tree& tree = own_tree();
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    if (!allowed.test(i)) tree.leaves[i]->set_disabled(true);
  }
  refresh();
}

void NodeTopology::clear_restrictions() {
  if (!any_disabled(root())) return;
  Tree& tree = own_tree();
  enable_all(*tree.root);
  refresh();
}

std::string NodeTopology::shape_string() const {
  std::string out = name_ + "(";
  bool first = true;
  for (ResourceType t : levels()) {
    if (t == ResourceType::kNode) continue;
    if (!first) out += " x ";
    first = false;
    out += std::to_string(count(t)) + " " + std::string(resource_keyword(t));
  }
  return out + ")";
}

std::string NodeTopology::render() const {
  std::string out;
  std::function<void(const TopoObject&, int)> walk = [&](const TopoObject& obj,
                                                         int indent) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    if (obj.type() == ResourceType::kNode) {
      out += name_;
    } else {
      out += resource_name(obj.type());
      out += " L#" + std::to_string(obj.level_index());
    }
    out += " (pus " + obj.cpuset().to_string() + ")";
    if (obj.disabled()) out += " [offline]";
    out += "\n";
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      walk(obj.child(i), indent + 1);
    }
  };
  walk(root(), 0);
  return out;
}

NodeTopology::Builder::Builder(std::string name) : name_(std::move(name)) {
  root_ = std::make_unique<TopoObject>(ResourceType::kNode, 0);
  stack_.push_back(root_.get());
}

NodeTopology::Builder& NodeTopology::Builder::begin(ResourceType t,
                                                    int os_index) {
  LAMA_ASSERT(!stack_.empty());
  TopoObject* parent = stack_.back();
  if (canonical_depth(t) <= canonical_depth(parent->type())) {
    throw ParseError("builder level " + std::string(resource_name(t)) +
                     " does not nest inside " +
                     std::string(resource_name(parent->type())));
  }
  const int os = os_index >= 0 ? os_index
                               : static_cast<int>(parent->num_children());
  TopoObject& child = parent->add_child(std::make_unique<TopoObject>(t, os));
  stack_.push_back(&child);
  return *this;
}

NodeTopology::Builder& NodeTopology::Builder::end() {
  LAMA_ASSERT(stack_.size() > 1);
  stack_.pop_back();
  return *this;
}

NodeTopology::Builder& NodeTopology::Builder::leaf(ResourceType t,
                                                   int os_index) {
  return begin(t, os_index).end();
}

NodeTopology::Builder& NodeTopology::Builder::disable() {
  LAMA_ASSERT(!stack_.empty());
  stack_.back()->set_disabled(true);
  return *this;
}

NodeTopology NodeTopology::Builder::build() {
  LAMA_ASSERT(stack_.size() == 1);
  return NodeTopology(std::move(name_), std::move(root_));
}

}  // namespace lama
