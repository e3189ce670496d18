#include "lama/binding.hpp"

#include <map>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace lama {

std::optional<ResourceType> bind_target_type(BindTarget target) {
  switch (target) {
    case BindTarget::kNone: return std::nullopt;
    case BindTarget::kHwThread: return ResourceType::kHwThread;
    case BindTarget::kCore: return ResourceType::kCore;
    case BindTarget::kL1: return ResourceType::kL1;
    case BindTarget::kL2: return ResourceType::kL2;
    case BindTarget::kL3: return ResourceType::kL3;
    case BindTarget::kNuma: return ResourceType::kNuma;
    case BindTarget::kSocket: return ResourceType::kSocket;
    case BindTarget::kBoard: return ResourceType::kBoard;
    case BindTarget::kNode: return ResourceType::kNode;
    case BindTarget::kMapped: return std::nullopt;
  }
  throw InternalError("unknown bind target");
}

namespace {

BindTarget bind_target_from_type(ResourceType type) {
  switch (type) {
    case ResourceType::kNode: return BindTarget::kNode;
    case ResourceType::kBoard: return BindTarget::kBoard;
    case ResourceType::kSocket: return BindTarget::kSocket;
    case ResourceType::kNuma: return BindTarget::kNuma;
    case ResourceType::kL3: return BindTarget::kL3;
    case ResourceType::kL2: return BindTarget::kL2;
    case ResourceType::kL1: return BindTarget::kL1;
    case ResourceType::kCore: return BindTarget::kCore;
    case ResourceType::kHwThread: return BindTarget::kHwThread;
  }
  throw InternalError("unknown resource type");
}

}  // namespace

BindTarget parse_bind_target(const std::string& text) {
  const std::string trimmed = trim(text);
  // Table I abbreviations are case-sensitive ('n' node vs 'N' NUMA).
  if (const auto type = resource_from_abbrev(trimmed)) {
    return bind_target_from_type(*type);
  }
  const std::string t = to_lower(trimmed);
  if (t == "none") return BindTarget::kNone;
  if (t == "hwthread" || t == "thread" || t == "pu") {
    return BindTarget::kHwThread;
  }
  if (t == "core") return BindTarget::kCore;
  if (t == "l1" || t == "l1cache") return BindTarget::kL1;
  if (t == "l2" || t == "l2cache") return BindTarget::kL2;
  if (t == "l3" || t == "l3cache") return BindTarget::kL3;
  if (t == "numa") return BindTarget::kNuma;
  if (t == "socket") return BindTarget::kSocket;
  if (t == "board") return BindTarget::kBoard;
  if (t == "node" || t == "machine") return BindTarget::kNode;
  if (t == "mapped" || t == "cpus") return BindTarget::kMapped;
  throw ParseError("unknown bind target: '" + text + "'");
}

std::string bind_target_name(BindTarget target) {
  switch (target) {
    case BindTarget::kNone: return "none";
    case BindTarget::kHwThread: return "hwthread";
    case BindTarget::kCore: return "core";
    case BindTarget::kL1: return "l1";
    case BindTarget::kL2: return "l2";
    case BindTarget::kL3: return "l3";
    case BindTarget::kNuma: return "numa";
    case BindTarget::kSocket: return "socket";
    case BindTarget::kBoard: return "board";
    case BindTarget::kNode: return "node";
    case BindTarget::kMapped: return "mapped";
  }
  throw InternalError("unknown bind target");
}

namespace {

// Nearest ancestor of the representative PU at `type`, widening outward
// through the canonical chain when permitted.
const TopoObject* resolve_bind_object(const NodeTopology& topo,
                                      std::size_t pu, ResourceType type,
                                      bool widen_if_missing) {
  const TopoObject* obj = topo.ancestor_of_pu(pu, type);
  if (obj != nullptr) return obj;
  if (!widen_if_missing) return nullptr;
  for (int depth = canonical_depth(type) - 1; depth >= 0; --depth) {
    obj = topo.ancestor_of_pu(pu, resource_from_depth(depth));
    if (obj != nullptr) return obj;
  }
  return nullptr;
}

}  // namespace

BindingResult bind_processes(const Allocation& alloc,
                             const MappingResult& mapping,
                             const BindingPolicy& policy) {
  if (policy.width == 0) {
    throw MappingError("binding width must be at least 1");
  }
  BindingResult result;
  result.target = policy.target;
  result.bindings.reserve(mapping.num_procs());

  // Per-node caches of online PU sets and per-object process counts for
  // overload detection. Keyed by (node, object).
  std::vector<Bitmap> online(alloc.num_nodes());
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    online[i] = alloc.node(i).topo.online_pus();
  }
  std::map<std::pair<std::size_t, const TopoObject*>, std::size_t> load;

  const std::optional<ResourceType> type = bind_target_type(policy.target);

  for (std::size_t rank = 0; rank < mapping.num_procs(); ++rank) {
    const std::size_t node = mapping.node(rank);
    const NodeTopology& topo = alloc.node(node).topo;
    ProcessBinding b;
    b.rank = static_cast<int>(rank);
    b.node = node;

    if (policy.target == BindTarget::kMapped) {
      // Bind exactly to the PUs the mapping assigned.
      b.cpuset = Bitmap(mapping.pus(rank));
      b.cpuset &= online[node];
      if (b.cpuset.empty()) {
        throw MappingError("binding for rank " + std::to_string(rank) +
                           " contains no online processing units");
      }
      b.width = b.cpuset.count();
      result.bindings.push_back(std::move(b));
      continue;
    }
    if (!type.has_value()) {
      // No restriction: the process may run anywhere on its node.
      b.cpuset = online[node];
      b.width = b.cpuset.count();
      result.bindings.push_back(std::move(b));
      continue;
    }

    const std::size_t rep = mapping.representative_pu(rank);
    LAMA_ASSERT(rep != Bitmap::npos);
    const TopoObject* obj =
        resolve_bind_object(topo, rep, *type, policy.widen_if_missing);
    if (obj == nullptr) {
      throw MappingError("node '" + topo.name() + "' has no " +
                         std::string(resource_name(*type)) +
                         " level to bind rank " + std::to_string(rank) +
                         " to");
    }

    Bitmap cpuset = obj->cpuset();
    if (policy.width > 1 && obj->parent() != nullptr) {
      // Widen across consecutive siblings at the same level ("2c" style).
      const TopoObject* parent = obj->parent();
      const std::size_t start =
          static_cast<std::size_t>(obj->sibling_index());
      if (start + policy.width > parent->num_children()) {
        throw MappingError(
            "binding width " + std::to_string(policy.width) + " at level " +
            std::string(resource_name(*type)) + " exceeds the " +
            std::to_string(parent->num_children()) + " siblings available");
      }
      for (std::size_t i = 1; i < policy.width; ++i) {
        cpuset |= parent->child(start + i).cpuset();
      }
    }
    cpuset &= online[node];
    if (cpuset.empty()) {
      throw MappingError("binding for rank " + std::to_string(rank) +
                         " contains no online processing units");
    }

    const std::size_t procs = ++load[{node, obj}];
    if (procs > cpuset.count()) {
      result.overloaded = true;
      if (!policy.allow_overload) {
        throw OversubscribeError(
            "binding overload: " + std::to_string(procs) +
            " processes bound within one " +
            std::string(resource_name(*type)) + " of only " +
            std::to_string(cpuset.count()) + " online PUs");
      }
    }

    b.cpuset = std::move(cpuset);
    b.width = b.cpuset.count();
    result.bindings.push_back(std::move(b));
  }
  return result;
}

}  // namespace lama
