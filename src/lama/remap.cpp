#include "lama/remap.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace lama {

namespace {

// True when some PU on some node is targeted by more than one rank.
bool any_pu_shared(const MappingResult& mapping, std::size_t num_nodes) {
  std::vector<Bitmap> used(num_nodes);
  for (std::size_t r = 0; r < mapping.num_procs(); ++r) {
    Bitmap& mine = used[mapping.node(r)];
    if (mapping.pus(r).intersects(mine)) return true;
    mine |= mapping.pus(r);
  }
  return false;
}

}  // namespace

RemapResult lama_remap(const Allocation& reduced, const ProcessLayout& layout,
                       const MapOptions& opts, const MappingResult& previous) {
  const std::size_t np = previous.num_procs();
  if (opts.np != np) {
    throw MappingError("remap expects opts.np (" + std::to_string(opts.np) +
                       ") to equal the previous mapping's process count (" +
                       std::to_string(np) + ")");
  }
  if (reduced.num_nodes() != previous.procs_per_node.size()) {
    throw MappingError(
        "remap expects the reduced allocation to keep the previous node "
        "list (apply failures as topology restrictions, not node removal)");
  }
  reduced.validate();

  // A rank survives when its node exists and every PU of its target is
  // still online there. Each node's online set is computed once; what the
  // survivors leave of it is where the displaced ranks may go.
  std::vector<Bitmap> online(reduced.num_nodes());
  for (std::size_t i = 0; i < reduced.num_nodes(); ++i) {
    online[i] = reduced.node(i).topo.online_pus();
  }
  std::vector<Bitmap> free_pus = online;
  RemapResult result;
  result.mapping = previous;
  result.mapping.layout = layout.to_string();
  for (std::size_t r = 0; r < np; ++r) {
    const std::size_t node = previous.node(r);
    const BitmapView pus = previous.pus(r);
    if (node < online.size() && !pus.empty() &&
        pus.is_subset_of(online[node])) {
      free_pus[node].and_not(pus);
    } else {
      result.displaced.push_back(static_cast<int>(r));
    }
  }
  result.surviving = np - result.displaced.size();
  // Nothing moved: the previous plan is still fully valid.
  if (result.displaced.empty()) return result;

  // Off-line the survivors' PUs on top of the reduced allocation, so the
  // recursive mapper's availability skipping steps past failures and
  // survivors alike and only ever lands displaced ranks on free resources.
  Allocation restricted = reduced;
  std::size_t free_total = 0;
  for (std::size_t i = 0; i < restricted.num_nodes(); ++i) {
    restricted.mutable_node(i).topo.restrict_pus(free_pus[i]);
    free_total += free_pus[i].count();
  }

  const Allocation* submap_alloc = &restricted;
  if (free_total == 0) {
    // Survivors hold every remaining PU. Either share (wrap around the
    // reduced allocation) or refuse, per the oversubscription policy.
    if (!opts.allow_oversubscribe) {
      throw OversubscribeError(
          "remap cannot place " + std::to_string(result.displaced.size()) +
          " displaced processes: surviving processes occupy every online "
          "processing unit and oversubscription is disallowed");
    }
    submap_alloc = &reduced;
    result.degraded_shared = true;
  }

  MapOptions sub = opts;
  sub.np = result.displaced.size();
  const MappingResult fresh = lama_map(*submap_alloc, layout, sub);

  MappingResult& mapping = result.mapping;
  for (std::size_t i = 0; i < result.displaced.size(); ++i) {
    mapping.copy_rank(static_cast<std::size_t>(result.displaced[i]), fresh, i);
  }
  mapping.sweeps = fresh.sweeps;
  mapping.skipped = fresh.skipped;
  mapping.visited = fresh.visited;
  mapping.procs_per_node.assign(reduced.num_nodes(), 0);
  for (std::size_t r = 0; r < np; ++r) {
    ++mapping.procs_per_node[mapping.node(r)];
  }
  mapping.pu_oversubscribed = any_pu_shared(mapping, reduced.num_nodes());
  mapping.slot_oversubscribed = false;
  for (std::size_t i = 0; i < reduced.num_nodes(); ++i) {
    if (mapping.procs_per_node[i] > reduced.node(i).slots) {
      mapping.slot_oversubscribed = true;
      break;
    }
  }
  return result;
}

}  // namespace lama
