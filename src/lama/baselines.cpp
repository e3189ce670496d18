#include "lama/baselines.hpp"

#include "support/error.hpp"

namespace lama {

namespace {

void check_options(const Allocation& alloc, const MapOptions& opts) {
  if (opts.np == 0) throw MappingError("number of processes must be positive");
  for (ResourceType t : all_resource_types()) {
    const std::size_t cap =
        opts.resource_caps[static_cast<std::size_t>(canonical_depth(t))];
    if (cap > 0 && t != ResourceType::kNode) {
      throw MappingError("the classic by-slot/by-node mappers only support "
                         "per-node caps; use the LAMA for finer ones");
    }
  }
  if (opts.pus_per_proc == 0) {
    throw MappingError("processes need at least one processing unit");
  }
  alloc.validate();
  if (!opts.allow_oversubscribe &&
      opts.np * opts.pus_per_proc > alloc.total_online_pus()) {
    throw OversubscribeError(
        "job of " + std::to_string(opts.np) + " processes x " +
        std::to_string(opts.pus_per_proc) + " PUs exceeds the " +
        std::to_string(alloc.total_online_pus()) +
        " online processing units and oversubscription is disallowed");
  }
}

void finish(const Allocation& alloc, const MapOptions& opts,
            MappingResult& result) {
  // A PU is oversubscribed as soon as one full wrap has happened on any
  // node: cursors revisit PUs in the same order every sweep.
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    if (result.procs_per_node[i] * opts.pus_per_proc >
        alloc.node(i).topo.online_pus().count()) {
      result.pu_oversubscribed = true;
    }
    if (result.procs_per_node[i] > alloc.node(i).slots) {
      result.slot_oversubscribed = true;
    }
  }
}

// Consecutive groups of `k` online PUs per node; the tail group smaller than
// k is unused (a process never spans nodes).
std::vector<std::vector<Bitmap>> pu_groups(const Allocation& alloc,
                                           std::size_t k) {
  std::vector<std::vector<Bitmap>> groups(alloc.num_nodes());
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    const std::vector<std::size_t> pus =
        alloc.node(i).topo.online_pus().to_vector();
    for (std::size_t start = 0; start + k <= pus.size(); start += k) {
      Bitmap group;
      for (std::size_t j = 0; j < k; ++j) group.set(pus[start + j]);
      groups[i].push_back(std::move(group));
    }
  }
  return groups;
}

}  // namespace

MappingResult map_by_slot(const Allocation& alloc, const MapOptions& opts) {
  check_options(alloc, opts);
  MappingResult result;
  result.layout = "by-slot";
  result.procs_per_node.assign(alloc.num_nodes(), 0);
  result.reset_ranks(opts.np, 1, 0);

  const std::vector<std::vector<Bitmap>> groups =
      pu_groups(alloc, opts.pus_per_proc);

  std::size_t rank = 0;
  while (rank < opts.np) {
    const std::size_t before = rank;
    ++result.sweeps;
    const std::size_t node_cap =
        opts.resource_caps[canonical_depth(ResourceType::kNode)];
    for (std::size_t node = 0; node < alloc.num_nodes() && rank < opts.np;
         ++node) {
      for (const Bitmap& group : groups[node]) {
        if (rank == opts.np) break;
        if (node_cap > 0 && result.procs_per_node[node] >= node_cap) {
          ++result.skipped;
          break;
        }
        result.set_node(rank, node);
        result.set_pus(rank, group);
        ++result.procs_per_node[node];
        ++rank;
        ++result.visited;
      }
    }
    if (rank == before) {
      throw MappingError("by-slot: no node has " +
                         std::to_string(opts.pus_per_proc) +
                         " online processing units");
    }
  }
  finish(alloc, opts, result);
  return result;
}

MappingResult map_by_node(const Allocation& alloc, const MapOptions& opts) {
  check_options(alloc, opts);
  MappingResult result;
  result.layout = "by-node";
  result.procs_per_node.assign(alloc.num_nodes(), 0);
  result.reset_ranks(opts.np, 1, 0);

  // Per-node cursor over PU groups; wraps independently per node.
  const std::vector<std::vector<Bitmap>> groups =
      pu_groups(alloc, opts.pus_per_proc);
  std::vector<std::size_t> cursor(alloc.num_nodes(), 0);

  std::size_t rank = 0;
  while (rank < opts.np) {
    const std::size_t before = rank;
    ++result.sweeps;
    for (std::size_t node = 0; node < alloc.num_nodes() && rank < opts.np;
         ++node) {
      const std::size_t node_cap =
          opts.resource_caps[canonical_depth(ResourceType::kNode)];
      if (groups[node].empty() ||
          (node_cap > 0 && result.procs_per_node[node] >= node_cap)) {
        ++result.skipped;
        continue;
      }
      result.set_node(rank, node);
      result.set_pus(rank, groups[node][cursor[node]]);
      cursor[node] = (cursor[node] + 1) % groups[node].size();
      ++result.procs_per_node[node];
      ++rank;
      ++result.visited;
    }
    if (rank == before) {
      throw MappingError("by-node: no node has " +
                         std::to_string(opts.pus_per_proc) +
                         " online processing units");
    }
  }
  finish(alloc, opts, result);
  return result;
}

}  // namespace lama
