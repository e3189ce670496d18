#include "rte/runtime.hpp"

#include "lama/baselines.hpp"
#include "lama/mapper.hpp"
#include "lama/rankfile.hpp"
#include "lama/validate.hpp"
#include "support/error.hpp"

namespace lama {

LaunchPlan::LaunchPlan(const Allocation& alloc, MappingResult mapping,
                       BindingResult binding)
    : mapping_(std::move(mapping)), binding_(std::move(binding)) {
  LAMA_ASSERT(mapping_.num_procs() == binding_.bindings.size());
  procs_.reserve(binding_.bindings.size());
  for (const ProcessBinding& b : binding_.bindings) {
    LAMA_ASSERT(b.node < alloc.num_nodes());
    LaunchedProcess p;
    p.rank = b.rank;
    p.node = b.node;
    p.cpuset = b.cpuset;
    p.binding_width = b.width;
    procs_.push_back(std::move(p));
  }
}

std::vector<const LaunchedProcess*> LaunchPlan::procs_on_node(
    std::size_t node) const {
  std::vector<const LaunchedProcess*> out;
  for (const LaunchedProcess& p : procs_) {
    if (p.node == node) out.push_back(&p);
  }
  return out;
}

void LaunchPlan::launch(const Allocation& alloc) {
  for (LaunchedProcess& p : procs_) {
    const Bitmap online = alloc.node(p.node).topo.online_pus();
    if (!p.cpuset.is_subset_of(online)) {
      throw MappingError(
          "cannot enforce binding for rank " + std::to_string(p.rank) +
          ": cpuset {" + p.cpuset.to_string() +
          "} is not within the online PUs of '" +
          alloc.node(p.node).topo.name() + "'");
    }
    p.state = ProcState::kRunning;
  }
}

namespace {

// Renders one node's PU map with the given cpuset marked 'B':
// "[BB/../../..][../../../..]" — brackets per socket (or per board, or the
// whole node when neither level exists), '/' per core.
std::string render_pu_map(const NodeTopology& topo, const Bitmap& bound) {
  ResourceType group = ResourceType::kNode;
  if (topo.has_level(ResourceType::kSocket)) {
    group = ResourceType::kSocket;
  } else if (topo.has_level(ResourceType::kBoard)) {
    group = ResourceType::kBoard;
  }
  const bool has_cores = topo.has_level(ResourceType::kCore);

  std::string out;
  for (const TopoObject* g : topo.objects_at(group)) {
    out += '[';
    bool first_core = true;
    auto render_leaf_block = [&](const Bitmap& pus) {
      if (!first_core) out += '/';
      first_core = false;
      for (std::size_t pu = pus.first(); pu != Bitmap::npos;
           pu = pus.next(pu)) {
        out += bound.test(pu) ? 'B' : '.';
      }
    };
    if (has_cores) {
      for (const TopoObject* core : topo.objects_at(ResourceType::kCore)) {
        if (core->cpuset().is_subset_of(g->cpuset())) {
          render_leaf_block(core->cpuset());
        }
      }
    } else {
      render_leaf_block(g->cpuset());
    }
    out += ']';
  }
  return out;
}

}  // namespace

std::string LaunchPlan::report_bindings(const Allocation& alloc) const {
  std::string out;
  for (const LaunchedProcess& p : procs_) {
    const NodeTopology& topo = alloc.node(p.node).topo;
    out += "[" + topo.name() + " rank " + std::to_string(p.rank) + "]";
    if (p.cpuset == topo.online_pus() &&
        binding_.target == BindTarget::kNone) {
      out += " not bound: ";
    } else {
      out += " bound to " + p.cpuset.to_string() + ": ";
    }
    out += render_pu_map(topo, p.cpuset);
    out += "\n";
  }
  return out;
}

LaunchPlan plan_job(const Allocation& alloc, const JobSpec& job,
                    const PlacementSpec& spec) {
  if (job.np == 0 && spec.np == 0) {
    throw MappingError("job specifies no processes");
  }
  MapOptions opts;
  opts.np = job.np != 0 ? job.np : spec.np;
  opts.allow_oversubscribe = job.allow_oversubscribe;
  // CLI option wins; otherwise multi-threaded jobs reserve one PU per
  // thread.
  opts.pus_per_proc = spec.cpus_per_proc != 0
                          ? spec.cpus_per_proc
                          : std::max<std::size_t>(1, job.threads_per_proc);
  opts.iteration = spec.iteration;
  opts.resource_caps = spec.resource_caps;

  if (spec.kind == MappingKind::kRankfile) {
    RankfilePlacement rf = parse_rankfile(alloc, spec.rankfile_text);
    if (rf.entries.size() != opts.np) {
      throw MappingError("rankfile specifies " +
                         std::to_string(rf.entries.size()) +
                         " ranks but the job needs " +
                         std::to_string(opts.np));
    }
    if (!opts.allow_oversubscribe && rf.mapping.pu_oversubscribed) {
      throw OversubscribeError(
          "rankfile oversubscribes processing units and oversubscription is "
          "disallowed");
    }
    return LaunchPlan(alloc, std::move(rf.mapping), std::move(rf.binding));
  }

  MappingResult mapping;
  switch (spec.kind) {
    case MappingKind::kBySlot:
      mapping = map_by_slot(alloc, opts);
      break;
    case MappingKind::kByNode:
      mapping = map_by_node(alloc, opts);
      break;
    case MappingKind::kLama:
      mapping = lama_map(alloc, spec.layout, opts);
      break;
    case MappingKind::kRankfile:
      throw InternalError("unreachable");
  }
  // Defence in depth: no plan leaves the runtime with broken invariants.
  const ValidationReport report = validate_mapping(alloc, mapping);
  if (!report.ok()) {
    throw InternalError("mapper produced an invalid plan:\n" +
                        report.to_string());
  }
  BindingResult binding = bind_processes(alloc, mapping, spec.binding);
  return LaunchPlan(alloc, std::move(mapping), std::move(binding));
}

LaunchPlan plan_job(const Allocation& alloc, const JobSpec& job,
                    const std::vector<std::string>& mpirun_args) {
  return plan_job(alloc, job, parse_mpirun_options(mpirun_args));
}

ReplanDiff replan_job(const Allocation& new_alloc, const JobSpec& job,
                      const PlacementSpec& spec, const LaunchPlan& old_plan) {
  ReplanDiff diff{plan_job(new_alloc, job, spec), {}, 0};
  const std::vector<LaunchedProcess>& fresh = diff.plan.procs();
  const std::vector<LaunchedProcess>& old = old_plan.procs();
  const std::size_t common = std::min(fresh.size(), old.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (fresh[i].node == old[i].node && fresh[i].cpuset == old[i].cpuset) {
      ++diff.unchanged;
    } else {
      diff.moved_ranks.push_back(fresh[i].rank);
    }
  }
  for (std::size_t i = common; i < fresh.size(); ++i) {
    diff.moved_ranks.push_back(fresh[i].rank);
  }
  return diff;
}

}  // namespace lama
