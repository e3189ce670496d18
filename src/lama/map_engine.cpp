#include "lama/map_engine.hpp"

#include "lama/maximal_tree.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace lama::detail {

void validate_map_inputs(const Allocation& alloc, const ProcessLayout& layout,
                         const MapOptions& opts) {
  if (opts.np == 0) throw MappingError("number of processes must be positive");
  if (opts.pus_per_proc == 0) {
    throw MappingError("processes need at least one processing unit");
  }
  alloc.validate();

  // A cap on a level the layout prunes has no object to attach to.
  for (ResourceType t : all_resource_types()) {
    if (opts.resource_caps[static_cast<std::size_t>(canonical_depth(t))] >
            0 &&
        !layout.contains(t)) {
      throw MappingError("resource cap on level '" +
                         std::string(resource_name(t)) +
                         "' requires that level in the process layout");
    }
  }
}

void check_oversubscribe(std::size_t online_capacity, const MapOptions& opts) {
  if (!opts.allow_oversubscribe &&
      opts.np * opts.pus_per_proc > online_capacity) {
    throw OversubscribeError(
        "job of " + std::to_string(opts.np) + " processes x " +
        std::to_string(opts.pus_per_proc) + " PUs exceeds the " +
        std::to_string(online_capacity) +
        " online processing units and oversubscription is disallowed");
  }
}

void check_oversubscribe(const MaximalTree& mtree, const MapOptions& opts) {
  check_oversubscribe(mtree.online_pu_capacity(), opts);
}

PlacementEngine::PlacementEngine(const MaximalTree& mtree,
                                 const ProcessLayout& layout,
                                 const MapOptions& opts)
    : mtree_(mtree), opts_(opts) {
  result_.layout = layout.to_string();
  // Placement fills every rank before take_result; set_pus widens the PU
  // column if a node has more than 64 PUs.
  result_.reset_ranks(opts.np, 1, layout.order().size());
  result_.procs_per_node.assign(mtree.num_nodes(), 0);
  pending_.resize(mtree.num_nodes());
  occupancy_.resize(mtree.num_nodes());
  for (std::size_t cap : opts.resource_caps) {
    if (cap > 0) caps_active_ = true;
  }
  const std::vector<ResourceType>& levels = mtree.node_levels();
  level_cap_.resize(levels.size());
  nc_width_.resize(levels.size());
  nc_prefix_.resize(levels.size());
  cap_use_.resize(levels.size());
  std::size_t prefix = 1;
  for (std::size_t j = 0; j < levels.size(); ++j) {
    level_cap_[j] = opts.resource_caps[canonical_depth(levels[j])];
    nc_width_[j] = mtree.width_of(levels[j]);
    prefix *= nc_width_[j];
    nc_prefix_[j] = prefix;
    if (level_cap_[j] > 0) {
      cap_use_[j].assign(mtree.num_nodes() * prefix, 0);
    }
  }
}

// True when starting a new process at this coordinate would exceed a cap.
// The flat prefix index of level j accumulates incrementally across the
// loop, so the whole check is multiply-add-load per level — no allocation.
bool PlacementEngine::capped_out(std::size_t node,
                                 std::span<const std::size_t> nc) const {
  const std::size_t node_cap =
      opts_.resource_caps[canonical_depth(ResourceType::kNode)];
  if (node_cap > 0 && result_.procs_per_node[node] >= node_cap) return true;
  std::size_t flat = 0;
  for (std::size_t j = 0; j < level_cap_.size(); ++j) {
    flat = flat * nc_width_[j] + nc[j];
    if (level_cap_[j] == 0) continue;
    if (cap_use_[j][node * nc_prefix_[j] + flat] >= level_cap_[j]) {
      return true;
    }
  }
  return false;
}

void PlacementEngine::charge_caps(std::size_t node,
                                  std::span<const std::size_t> nc) {
  std::size_t flat = 0;
  for (std::size_t j = 0; j < level_cap_.size(); ++j) {
    flat = flat * nc_width_[j] + nc[j];
    if (level_cap_[j] == 0) continue;
    ++cap_use_[j][node * nc_prefix_[j] + flat];
  }
}

void PlacementEngine::emit_placement(std::size_t node) {
  Pending& acc = pending_[node];
  if (caps_active_) charge_caps(node, acc.node_coord);
  result_.set_node(rank_, node);
  result_.set_pus(rank_, acc.pus);
  result_.set_coord(rank_, acc.coord);
  ++result_.procs_per_node[node];
  for (const PrunedObject* target : acc.objects) ++occupancy_[node][target];
  ++rank_;
  acc.pus.clear_all();
  acc.targets = 0;
  acc.objects.clear();
}

bool PlacementEngine::offer(const PrunedObject* target, std::size_t node,
                            std::span<const std::size_t> coord,
                            std::span<const std::size_t> node_coord) {
  ++result_.visited;
  Pending& acc = pending_[node];
  if (caps_active_ && acc.targets == 0 && capped_out(node, node_coord)) {
    ++result_.skipped;
    return false;
  }
  if (acc.targets == 0) {
    // The process is addressed by its first target. assign() reuses the
    // accumulator's capacity, so repeat sweeps stop allocating here.
    acc.coord.assign(coord.begin(), coord.end());
    acc.node_coord.assign(node_coord.begin(), node_coord.end());
  }
  acc.pus |= target->available_pus();
  acc.objects.push_back(target);
  ++acc.targets;
  if (acc.targets == opts_.pus_per_proc) emit_placement(node);
  return done();
}

void PlacementEngine::begin_sweep() {
  sweep_span_start_ns_ = obs::span_begin();
  sweep_start_rank_ = rank_;
  for (Pending& p : pending_) {  // partial processes never straddle sweeps
    p.pus.clear_all();
    p.targets = 0;
    p.objects.clear();
  }
}

void PlacementEngine::end_sweep() {
  obs::span_end(obs::Stage::kSweep, sweep_index_++, sweep_span_start_ns_);
  sweep_span_start_ns_ = 0;
  ++result_.sweeps;
  if (!done() && rank_ == sweep_start_rank_) {
    throw MappingError(
        "no available processing resources for layout; every coordinate "
        "was skipped");
  }
}

MappingResult PlacementEngine::take_result(const Allocation& alloc) {
  for (const auto& on_node : occupancy_) {
    for (const auto& [target, count] : on_node) {
      if (count > target->available_pus().count()) {
        result_.pu_oversubscribed = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    if (result_.procs_per_node[i] > alloc.node(i).slots) {
      result_.slot_oversubscribed = true;
      break;
    }
  }
  return std::move(result_);
}

}  // namespace lama::detail
