#include "lama/map_plan.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "lama/map_engine.hpp"
#include "lama/maximal_tree.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace lama {

namespace {

std::uint64_t next_plan_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Walks the full iteration space once, in exact sequential order, recording
// every viable coordinate as a slot. Mirrors the recursion of MapWalk so the
// flat positions enumerate the same order the reference mapper visits.
struct PlanBuilder {
  const MaximalTree& mtree;
  MapPlan& plan;
  int node_pos;
  std::vector<std::size_t> level_pos;   // containment level -> layout position
  std::vector<std::size_t> coord;       // current coordinate, layout order
  std::vector<std::size_t> node_coord;  // scratch, containment order
  std::uint64_t pos = 0;                // flat visit position
  std::uint64_t pending_skips = 0;

  PlanBuilder(const MaximalTree& mt, MapPlan& p) : mtree(mt), plan(p) {
    const std::vector<ResourceType>& order = plan.layout.order();
    node_pos = -1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == ResourceType::kNode) node_pos = static_cast<int>(i);
    }
    const std::vector<ResourceType>& levels = mtree.node_levels();
    level_pos.resize(levels.size());
    for (std::size_t j = 0; j < levels.size(); ++j) {
      const auto it = std::find(order.begin(), order.end(), levels[j]);
      LAMA_ASSERT(it != order.end());
      level_pos[j] = static_cast<std::size_t>(it - order.begin());
    }
    coord.assign(order.size(), 0);
    node_coord.resize(levels.size());
  }

  void visit_coord() {
    const std::size_t node =
        node_pos >= 0 ? coord[static_cast<std::size_t>(node_pos)] : 0;
    std::uint64_t nc_flat = 0;
    for (std::size_t j = 0; j < level_pos.size(); ++j) {
      node_coord[j] = coord[level_pos[j]];
      nc_flat = nc_flat * plan.nc_width[j] + node_coord[j];
    }
    const PrunedObject* target = mtree.pruned(node).lookup(node_coord);
    if (target == nullptr || !target->available()) {
      ++pending_skips;
      ++pos;
      return;
    }
    plan.slots.push_back(
        {&target->available_pus(), pos, nc_flat, pending_skips,
         static_cast<std::uint32_t>(node),
         static_cast<std::uint32_t>(target->available_pus().count())});
    pending_skips = 0;
    ++pos;
  }

  void inner_loop(int level) {
    for (std::size_t idx : plan.visit[static_cast<std::size_t>(level)]) {
      coord[static_cast<std::size_t>(level)] = idx;
      if (level > 0) {
        inner_loop(level - 1);
      } else {
        visit_coord();
      }
    }
  }

  void run() {
    inner_loop(static_cast<int>(plan.visit.size()) - 1);
    plan.trailing_skips = pending_skips;
  }
};

}  // namespace

std::uint64_t map_plan_space(const MaximalTree& mtree,
                             const ProcessLayout& layout,
                             const IterationPolicy& policy) {
  std::uint64_t space = 1;
  for (ResourceType t : layout.order()) {
    const std::uint64_t extent = policy.visit_order(t, mtree.width_of(t)).size();
    if (extent != 0 && space > ~std::uint64_t{0} / extent) {
      return ~std::uint64_t{0};  // saturate: certainly over any sane limit
    }
    space *= extent;
  }
  return space;
}

MapPlan compile_map_plan(const MaximalTree& mtree, const ProcessLayout& layout,
                         const IterationPolicy& policy,
                         std::uint64_t max_space) {
  MapPlan plan(layout);
  plan.uid = next_plan_uid();
  plan.layout_string = layout.to_string();
  plan.default_policy = policy.is_default();

  const std::vector<ResourceType>& order = layout.order();
  plan.visit.resize(order.size());
  plan.extents.resize(order.size());
  plan.vstride.resize(order.size());
  std::uint64_t stride = 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    plan.visit[i] = policy.visit_order(order[i], mtree.width_of(order[i]));
    plan.extents[i] = plan.visit[i].size();
    plan.vstride[i] = stride;
    stride *= plan.extents[i];
  }
  plan.space = stride;
  if (max_space > 0 && plan.space > max_space) {
    throw MappingError("mapping plan space " + std::to_string(plan.space) +
                       " exceeds the compile limit " +
                       std::to_string(max_space));
  }

  const std::vector<ResourceType>& levels = mtree.node_levels();
  plan.nc_width.resize(levels.size());
  plan.nc_stride.resize(levels.size());
  plan.nc_prefix.resize(levels.size());
  plan.level_depth.resize(levels.size());
  std::uint64_t prefix = 1;
  for (std::size_t j = 0; j < levels.size(); ++j) {
    plan.nc_width[j] = mtree.width_of(levels[j]);
    plan.level_depth[j] = canonical_depth(levels[j]);
    prefix *= plan.nc_width[j];
    plan.nc_prefix[j] = prefix;
  }
  std::uint64_t suffix = 1;
  for (std::size_t j = levels.size(); j-- > 0;) {
    plan.nc_stride[j] = suffix;
    suffix *= plan.nc_width[j];
  }

  plan.num_nodes = mtree.num_nodes();
  plan.online_capacity = mtree.online_pu_capacity();

  PlanBuilder(mtree, plan).run();
  for (const MapPlan::Slot& s : plan.slots) {
    plan.pu_stride = std::max(plan.pu_stride, s.pus->view().used_words());
  }
  return plan;
}

namespace detail {

void validate_compiled_inputs(const Allocation& alloc, const MapOptions& opts,
                              const MapPlan& plan) {
  if (opts.np == 0) throw MappingError("number of processes must be positive");
  if (opts.pus_per_proc == 0) {
    throw MappingError("processes need at least one processing unit");
  }
  if (plan.default_policy != opts.iteration.is_default()) {
    throw MappingError(
        "compiled plan was built under a different iteration policy");
  }
  LAMA_ASSERT(alloc.num_nodes() == plan.num_nodes);
  for (ResourceType t : all_resource_types()) {
    if (opts.resource_caps[static_cast<std::size_t>(canonical_depth(t))] > 0 &&
        !plan.layout.contains(t)) {
      throw MappingError("resource cap on level '" +
                         std::string(resource_name(t)) +
                         "' requires that level in the process layout");
    }
  }
  check_oversubscribe(plan.online_capacity, opts);
}

}  // namespace detail

void PlanExecutor::bind(const MapPlan& plan) {
  if (bound_uid_ == plan.uid) return;
  bound_uid_ = plan.uid;
  pending_.assign(plan.num_nodes, Pending{});
  for (Pending& p : pending_) p.coord.resize(plan.extents.size());
  occ_.assign(plan.slots.size(), 0);
  touched_.clear();
  cap_use_.assign(plan.level_depth.size(), {});
  level_cap_.assign(plan.level_depth.size(), 0);
}

void PlanExecutor::check_deadline(const MapOptions& opts,
                                  const MappingResult& out) const {
  if (opts.deadline_ns == 0) return;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  if (static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now).count()) >=
      opts.deadline_ns) {
    throw CancelledError("mapping deadline exceeded after " +
                         std::to_string(out.visited) +
                         " visited coordinates");
  }
}

void PlanExecutor::reset_run_state(const MapOptions& opts, const MapPlan& plan,
                                   MappingResult& out) {
  out.layout = plan.layout_string;
  out.reset_ranks(opts.np, plan.pu_stride, plan.extents.size());
  out.sweeps = 0;
  out.skipped = 0;
  out.visited = 0;
  out.pu_oversubscribed = false;
  out.slot_oversubscribed = false;
  out.procs_per_node.assign(plan.num_nodes, 0);

  rank_ = 0;
  sweep_index_ = 0;
  offer_count_ = 0;
  np_ = opts.np;
  pus_per_proc_ = opts.pus_per_proc;

  // Occupancy resets via the touched list: O(slots actually placed on), and
  // exception-safe because it runs at the start of the next run too.
  for (const std::uint32_t id : touched_) occ_[id] = 0;
  touched_.clear();

  caps_active_ = false;
  for (const std::size_t cap : opts.resource_caps) {
    if (cap > 0) caps_active_ = true;
  }
  node_cap_ = opts.resource_caps[canonical_depth(ResourceType::kNode)];
  if (caps_active_) {
    for (std::size_t j = 0; j < plan.level_depth.size(); ++j) {
      level_cap_[j] =
          opts.resource_caps[static_cast<std::size_t>(plan.level_depth[j])];
      if (level_cap_[j] > 0) {
        cap_use_[j].assign(plan.cap_slots(j), 0);
      }
    }
  }

  for (Pending& p : pending_) {
    p.pus.clear_all();
    p.targets = 0;
    p.slot_ids.clear();
    p.slot_ids.reserve(pus_per_proc_);
    p.coord.resize(plan.extents.size());
  }
}

bool PlanExecutor::capped_out(const MapPlan& plan, const MapPlan::Slot& s,
                              const MappingResult& out) const {
  if (node_cap_ > 0 && out.procs_per_node[s.node] >= node_cap_) return true;
  for (std::size_t j = 0; j < level_cap_.size(); ++j) {
    const std::size_t cap = level_cap_[j];
    if (cap == 0) continue;
    const std::size_t idx =
        s.node * static_cast<std::size_t>(plan.nc_prefix[j]) +
        static_cast<std::size_t>(s.nc_flat / plan.nc_stride[j]);
    if (cap_use_[j][idx] >= cap) return true;
  }
  return false;
}

void PlanExecutor::emit(const MapPlan& plan, std::size_t node,
                        MappingResult& out) {
  Pending& acc = pending_[node];
  if (caps_active_) {
    for (std::size_t j = 0; j < level_cap_.size(); ++j) {
      if (level_cap_[j] == 0) continue;
      const std::size_t idx =
          node * static_cast<std::size_t>(plan.nc_prefix[j]) +
          static_cast<std::size_t>(acc.nc_flat / plan.nc_stride[j]);
      ++cap_use_[j][idx];
    }
  }
  out.set_node(rank_, node);
  out.set_pus(rank_, acc.pus);
  out.set_coord(rank_, acc.coord);
  ++out.procs_per_node[node];
  for (const std::uint32_t id : acc.slot_ids) {
    if (occ_[id]++ == 0) touched_.push_back(id);
  }
  ++rank_;
  acc.pus.clear_all();
  acc.targets = 0;
  acc.slot_ids.clear();
}

void PlanExecutor::begin_sweep() {
  sweep_span_start_ns_ = obs::span_begin();
  sweep_start_rank_ = rank_;
  for (Pending& p : pending_) {  // partial processes never straddle sweeps
    p.pus.clear_all();
    p.targets = 0;
    p.slot_ids.clear();
  }
}

void PlanExecutor::end_sweep(MappingResult& out) {
  obs::span_end(obs::Stage::kSweep, sweep_index_++, sweep_span_start_ns_);
  sweep_span_start_ns_ = 0;
  ++out.sweeps;
  if (rank_ < np_ && rank_ == sweep_start_rank_) {
    throw MappingError(
        "no available processing resources for layout; every coordinate "
        "was skipped");
  }
}

void PlanExecutor::run(const Allocation& alloc, const MapOptions& opts,
                       const MapPlan& plan, MappingResult& out) {
  detail::validate_compiled_inputs(alloc, opts, plan);
  bind(plan);
  reset_run_state(opts, plan, out);

  while (rank_ < np_) {
    check_deadline(opts, out);
    begin_sweep();
    for (std::size_t i = 0; i < plan.slots.size(); ++i) {
      const MapPlan::Slot& s = plan.slots[i];
      out.visited += s.skips_before;
      out.skipped += s.skips_before;
      ++out.visited;
      if (((++offer_count_) & 0xFFF) == 0) check_deadline(opts, out);
      Pending& acc = pending_[s.node];
      if (caps_active_ && acc.targets == 0 && capped_out(plan, s, out)) {
        ++out.skipped;
        continue;
      }
      if (acc.targets == 0) {
        acc.nc_flat = s.nc_flat;
        plan.decode_coord(s.pos, acc.coord);
      }
      acc.pus |= *s.pus;
      acc.slot_ids.push_back(static_cast<std::uint32_t>(i));
      if (++acc.targets == pus_per_proc_) {
        emit(plan, s.node, out);
        // The np-th rank is placed: stop exactly here, like the sequential
        // walk's early return — later coordinates are never counted
        // visited. The partial sweep still counts.
        if (rank_ == np_) break;
      }
    }
    if (rank_ < np_) {
      out.visited += plan.trailing_skips;
      out.skipped += plan.trailing_skips;
    }
    end_sweep(out);
  }

  // Finalize the oversubscription flags exactly like take_result(): a PU is
  // oversubscribed when any slot accumulated more processes than it has
  // PUs; a node when it received more processes than scheduler slots.
  for (const std::uint32_t id : touched_) {
    if (occ_[id] > plan.slots[id].pu_count) {
      out.pu_oversubscribed = true;
      break;
    }
  }
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    if (out.procs_per_node[i] > alloc.node(i).slots) {
      out.slot_oversubscribed = true;
      break;
    }
  }
}

void lama_map_compiled(const Allocation& alloc, const MapOptions& opts,
                       const MapPlan& plan, PlanExecutor& exec,
                       MappingResult& out) {
  exec.run(alloc, opts, plan, out);
}

MappingResult lama_map_compiled(const Allocation& alloc, const MapOptions& opts,
                                const MapPlan& plan) {
  PlanExecutor exec;
  MappingResult out;
  lama_map_compiled(alloc, opts, plan, exec, out);
  return out;
}

}  // namespace lama
