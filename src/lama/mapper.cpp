#include "lama/mapper.hpp"

#include <algorithm>
#include <chrono>

#include "lama/map_engine.hpp"
#include "lama/maximal_tree.hpp"
#include "support/error.hpp"

namespace lama {

namespace {

// The coordinate walk of one sequential mapping run. The recursion mirrors
// the paper's Figure 1: inner_loop(level) iterates the level's resources,
// recursing toward level 0 (the leftmost, innermost layout letter) where
// each coordinate is resolved against the targeted node's pruned tree and
// handed to the PlacementEngine, which owns all placement history (multi-PU
// accumulation, caps, ranks, sweeps).
struct MapWalk {
  const MaximalTree& mtree;
  const std::vector<ResourceType>& order;  // layout, innermost first
  const MapOptions& opts;
  detail::PlacementEngine engine;

  std::vector<std::vector<std::size_t>> visit;  // per layout position
  int node_pos = -1;                    // layout position of 'n', or -1
  std::vector<std::size_t> level_pos;   // containment level -> layout position
  std::vector<std::size_t> coord;       // current iteration coordinate
  std::vector<std::size_t> node_coord;  // scratch: containment-ordered coord

  MapWalk(const MaximalTree& mt, const ProcessLayout& layout,
          const MapOptions& options)
      : mtree(mt),
        order(layout.order()),
        opts(options),
        engine(mt, layout, options) {
    visit.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      visit[i] =
          opts.iteration.visit_order(order[i], mtree.width_of(order[i]));
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

  void check_deadline() const {
    if (opts.deadline_ns == 0) return;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    if (static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                .count()) >= opts.deadline_ns) {
      throw CancelledError("mapping deadline exceeded after " +
                           std::to_string(engine.visited()) +
                           " visited coordinates");
    }
  }

  void try_map() {
    // Poll the deadline sparsely: one clock read per 4096 coordinates keeps
    // the cancellation latency bounded without slowing the hot walk.
    if (((engine.visited() + 1) & 0xFFF) == 0) check_deadline();
    const std::size_t node =
        node_pos >= 0 ? coord[static_cast<std::size_t>(node_pos)] : 0;
    for (std::size_t j = 0; j < level_pos.size(); ++j) {
      node_coord[j] = coord[level_pos[j]];
    }
    const PrunedObject* target = mtree.pruned(node).lookup(node_coord);
    if (target == nullptr || !target->available()) {
      engine.skip();
      return;
    }
    engine.offer(target, node, coord, node_coord);
  }

  void inner_loop(int level) {
    for (std::size_t idx : visit[static_cast<std::size_t>(level)]) {
      if (engine.done()) return;
      coord[static_cast<std::size_t>(level)] = idx;
      if (level > 0) {
        inner_loop(level - 1);
      } else {
        try_map();
      }
    }
  }

  void run() {
    while (!engine.done()) {
      check_deadline();
      engine.begin_sweep();
      inner_loop(static_cast<int>(order.size()) - 1);
      engine.end_sweep();
    }
  }
};

}  // namespace

MappingResult lama_map(const Allocation& alloc, const ProcessLayout& layout,
                       const MapOptions& opts) {
  // Fail before building the tree.
  detail::validate_map_inputs(alloc, layout, opts);
  MaximalTree mtree(alloc, layout);
  return lama_map(alloc, layout, opts, mtree);
}

MappingResult lama_map(const Allocation& alloc, const ProcessLayout& layout,
                       const MapOptions& opts, const MaximalTree& mtree) {
  detail::validate_map_inputs(alloc, layout, opts);
  detail::check_oversubscribe(mtree, opts);

  MapWalk walk(mtree, layout, opts);
  walk.run();
  return walk.engine.take_result(alloc);
}

MappingResult lama_map(const Allocation& alloc, const std::string& layout,
                       const MapOptions& opts) {
  return lama_map(alloc, ProcessLayout::parse(layout), opts);
}

}  // namespace lama
