// The placement decision core of the Figure 1 mapper, factored out of the
// coordinate walk (mapper.cpp). The engine consumes the walk's
// per-coordinate outcomes — a *viable* target (exists and available) or a
// skip — in global iteration order, and applies everything that depends on
// placement history: multi-PU accumulation, resource caps, rank assignment,
// sweep accounting, and the oversubscription flags. The compiled executor
// (map_plan.hpp) replicates the same semantics over precompiled slot
// arrays, and is tested byte-for-byte against this engine's results.
//
// Cap state is dense: each capped containment level owns a flat usage array
// indexed by (node, prefix coordinate), so a cap check is a few multiplies
// and loads — no per-check key vectors, no ordered maps. Coordinates flow
// through as spans over the walk's scratch buffers; the engine copies them
// only when a process's first target is gathered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/layout.hpp"
#include "lama/mapper.hpp"
#include "lama/mapping.hpp"
#include "lama/pruned_tree.hpp"

namespace lama {

class MaximalTree;

namespace detail {

// Input validation shared by every lama_map entry point. Throws
// MappingError on unusable inputs.
void validate_map_inputs(const Allocation& alloc, const ProcessLayout& layout,
                         const MapOptions& opts);

// Enforces MapOptions::allow_oversubscribe against the online capacity.
// Throws OversubscribeError.
void check_oversubscribe(std::size_t online_capacity, const MapOptions& opts);
void check_oversubscribe(const MaximalTree& mtree, const MapOptions& opts);

class PlacementEngine {
 public:
  PlacementEngine(const MaximalTree& mtree, const ProcessLayout& layout,
                  const MapOptions& opts);

  // One coordinate whose lookup failed (heterogeneity) or whose target is
  // unavailable (restrictions).
  void skip() {
    ++result_.visited;
    ++result_.skipped;
  }

  // One viable coordinate: `target` exists and is available. May skip it
  // anyway (resource caps), accumulate it (multi-PU), or place a rank.
  // Returns true once all np ranks are placed — the walk must stop
  // immediately (no further coordinate is counted visited).
  bool offer(const PrunedObject* target, std::size_t node,
             std::span<const std::size_t> coord,
             std::span<const std::size_t> node_coord);

  // Sweep boundary protocol, mirroring Figure 1's wraparound loop:
  // begin_sweep resets the partial multi-PU accumulators (a process never
  // straddles sweeps); end_sweep counts the sweep — including a final
  // partial one — and throws MappingError when a completed sweep placed
  // nothing (every coordinate skipped).
  void begin_sweep();
  void end_sweep();

  [[nodiscard]] bool done() const { return rank_ == opts_.np; }
  [[nodiscard]] std::size_t visited() const { return result_.visited; }

  // Finalizes the oversubscription flags against `alloc` and moves the
  // result out. The engine is spent afterwards.
  MappingResult take_result(const Allocation& alloc);

 private:
  struct Pending {
    Bitmap pus;
    std::size_t targets = 0;
    std::vector<std::size_t> coord;       // of the first gathered target
    std::vector<std::size_t> node_coord;  // containment-ordered, ditto
    std::vector<const PrunedObject*> objects;
  };

  [[nodiscard]] bool capped_out(std::size_t node,
                                std::span<const std::size_t> nc) const;
  void charge_caps(std::size_t node, std::span<const std::size_t> nc);
  void emit_placement(std::size_t node);

  const MaximalTree& mtree_;
  const MapOptions& opts_;
  std::size_t rank_ = 0;
  std::size_t sweep_start_rank_ = 0;
  std::uint64_t sweep_span_start_ns_ = 0;  // 0 when no trace is active
  std::uint32_t sweep_index_ = 0;
  std::vector<Pending> pending_;  // per node
  bool caps_active_ = false;
  // Dense cap state, one flat array per capped containment level j: entry
  // (node * prefix_space[j] + prefix coordinate) counts processes placed
  // under that ancestor. Uncapped levels keep empty arrays.
  std::vector<std::size_t> level_cap_;   // resolved cap per level
  std::vector<std::size_t> nc_width_;    // maximal-tree width per level
  std::vector<std::size_t> nc_prefix_;   // product of widths 0..j
  std::vector<std::vector<std::uint32_t>> cap_use_;
  MappingResult result_;
  std::unordered_map<const PrunedObject*, std::size_t> occupancy_;
};

}  // namespace detail
}  // namespace lama
