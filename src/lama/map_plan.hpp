// Compiled mapping plans: the Figure 1 walk flattened into data. The
// recursive mapper re-derives, on every visited coordinate, facts that are
// invariant for a (maximal tree, layout, iteration policy) triple — which
// coordinates exist, which are available, which pruned vertex they resolve
// to, and how a coordinate's containment digits index the resource-cap
// state. compile_map_plan() performs that derivation exactly once, producing
// a flat MapPlan:
//
//   * the iteration space as a mixed-radix odometer (per-level visit orders,
//     extents, and strides, innermost stride 1), so a flat visit position P
//     in [0, space) enumerates the walk in exact sequential order;
//   * one Slot per viable coordinate, in walk order, carrying the resolved
//     pruned vertex's PU set, the target node, the skip gap since the
//     previous viable coordinate, and a dense containment-ordered coordinate
//     index (nc_flat) from which every level's cap bucket is a single
//     divide — no per-check key vectors, no hash maps.
//
// PlanExecutor runs each sweep as one linear scan of the slot array,
// charging every slot's skip gap and the plan's trailing skips to the
// visited/skipped counters, with the placement semantics of
// detail::PlacementEngine (multi-PU accumulation, resource caps, wraparound
// sweeps, oversubscription flags) over preallocated dense arrays: after a
// warm-up run, steady-state executions perform zero heap allocations
// (asserted by tests/lama/zero_alloc_test.cpp). Results are byte-identical
// to lama_map() for every layout, allocation, and option set (the
// differential sweeps in tests/lama/compiled_differential_test.cpp, the
// Fig. 2 golden in tests/lama/mapper_test.cpp and the full 9! sweep pin
// this down).
//
// Lifetime: a MapPlan borrows the PU bitmaps of the MaximalTree it was
// compiled from and must not outlive it. The service's PlanCache
// (svc/plan_cache.hpp) ties the two together with shared ownership.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/iteration.hpp"
#include "lama/layout.hpp"
#include "lama/mapper.hpp"
#include "lama/mapping.hpp"
#include "support/bitmap.hpp"

namespace lama {

class MaximalTree;

struct MapPlan {
  // One viable coordinate of the iteration space, in walk order.
  struct Slot {
    const Bitmap* pus = nullptr;  // resolved vertex's available PUs (borrowed)
    std::uint64_t pos = 0;        // flat visit position in [0, space)
    std::uint64_t nc_flat = 0;    // dense containment-ordered coordinate
    std::uint64_t skips_before = 0;  // skips since the previous viable slot
    std::uint32_t node = 0;
    std::uint32_t pu_count = 0;   // pus->count(), for the oversubscription flag
  };

  explicit MapPlan(ProcessLayout l) : layout(std::move(l)) {}

  // Identity. uid is unique per compiled plan (a global counter), so
  // executors can detect rebinding even when a freed plan's address is
  // reused.
  std::uint64_t uid = 0;
  ProcessLayout layout;
  std::string layout_string;  // layout.to_string(), cached for result reuse

  // --- the odometer -------------------------------------------------------
  // Indexed by layout position (innermost first, like layout.order()).
  std::vector<std::vector<std::size_t>> visit;  // policy-expanded orders
  std::vector<std::uint64_t> extents;           // visit[l].size()
  std::vector<std::uint64_t> vstride;           // mixed-radix, vstride[0] = 1
  std::uint64_t space = 0;                      // product of extents

  // --- containment geometry ----------------------------------------------
  // Indexed by containment level j (mtree.node_levels(), outermost first).
  std::vector<std::uint64_t> nc_width;    // level width in the maximal tree
  std::vector<std::uint64_t> nc_stride;   // suffix products, innermost 1
  std::vector<std::uint64_t> nc_prefix;   // prefix space: product of widths 0..j
  std::vector<int> level_depth;           // canonical_depth(levels[j])

  std::size_t num_nodes = 0;
  std::size_t online_capacity = 0;  // online PUs (for the oversubscribe check)
  // Words per rank of a result's PU-set column: enough for every slot's set.
  std::size_t pu_stride = 1;
  // Whether the compiling policy was the all-sequential default. Execution
  // requires the run's policy to agree (checked for the default case; a
  // plan compiled under a custom policy must only run under that policy —
  // the caller's contract, since policies are not comparable).
  bool default_policy = true;

  // --- the compiled walk --------------------------------------------------
  std::vector<Slot> slots;               // every viable coordinate, in order
  // Nonexistent/unavailable coordinates after the last slot (the whole
  // space when there is no slot). With every slot's skips_before they
  // account for the full space: sum(skips_before) + slots.size() +
  // trailing_skips == space.
  std::uint64_t trailing_skips = 0;

  // Cap-state entries level j needs: one per (node, prefix coordinate).
  [[nodiscard]] std::size_t cap_slots(std::size_t j) const {
    return num_nodes * static_cast<std::size_t>(nc_prefix[j]);
  }

  // Decodes a flat visit position into the layout-ordered coordinate.
  // `out` must have extents.size() entries.
  void decode_coord(std::uint64_t pos, std::span<std::size_t> out) const {
    for (std::size_t l = 0; l < extents.size(); ++l) {
      out[l] = visit[l][(pos / vstride[l]) % extents[l]];
    }
  }
};

// Size of the iteration space a plan for this triple would enumerate —
// the cheap pre-check the service runs before compiling, so pathological
// spaces fall back to the reference walk instead of materializing a plan.
std::uint64_t map_plan_space(const MaximalTree& mtree,
                             const ProcessLayout& layout,
                             const IterationPolicy& policy);

// Compiles the plan: one full walk of the iteration space, resolving every
// coordinate against the pruned trees. `max_space` > 0 bounds the space;
// compilation throws MappingError when it is exceeded. The plan borrows the
// tree's PU bitmaps and must not outlive `mtree`.
MapPlan compile_map_plan(const MaximalTree& mtree, const ProcessLayout& layout,
                         const IterationPolicy& policy,
                         std::uint64_t max_space = 0);

// Replays a compiled plan with PlacementEngine semantics against dense,
// reusable state. One executor serves any number of runs; rebinding to a
// different plan (detected by uid) re-sizes the arenas, after which
// same-shaped runs allocate nothing.
class PlanExecutor {
 public:
  PlanExecutor() = default;
  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  // Sizes the dense state for `plan`. Idempotent for the same plan (uid
  // comparison); called automatically by run().
  void bind(const MapPlan& plan);

  // Executes the plan, writing the mapping into `out` (buffers reused).
  // Throws exactly like lama_map: MappingError when a sweep places nothing,
  // OversubscribeError per policy, CancelledError past the deadline.
  void run(const Allocation& alloc, const MapOptions& opts,
           const MapPlan& plan, MappingResult& out);

 private:
  struct Pending {
    Bitmap pus;
    std::size_t targets = 0;
    std::uint64_t nc_flat = 0;            // of the first gathered target
    std::vector<std::size_t> coord;       // decoded lazily, layout order
    std::vector<std::uint32_t> slot_ids;  // for PU-occupancy accounting
  };

  void reset_run_state(const MapOptions& opts, const MapPlan& plan,
                       MappingResult& out);
  [[nodiscard]] bool capped_out(const MapPlan& plan, const MapPlan::Slot& s,
                                const MappingResult& out) const;
  void emit(const MapPlan& plan, std::size_t node, MappingResult& out);
  void begin_sweep();
  void end_sweep(MappingResult& out);
  void check_deadline(const MapOptions& opts, const MappingResult& out) const;

  std::uint64_t bound_uid_ = 0;  // 0 = unbound
  std::vector<Pending> pending_;            // per node
  std::vector<std::uint32_t> occ_;          // per slot: processes placed on it
  std::vector<std::uint32_t> touched_;      // slots with occ_ > 0
  std::vector<std::vector<std::uint32_t>> cap_use_;  // per level, dense
  std::vector<std::size_t> level_cap_;      // per level, resolved from opts
  std::size_t node_cap_ = 0;
  bool caps_active_ = false;
  std::size_t pus_per_proc_ = 1;
  std::size_t np_ = 0;
  std::size_t rank_ = 0;
  std::size_t sweep_start_rank_ = 0;
  std::uint64_t sweep_span_start_ns_ = 0;
  std::uint32_t sweep_index_ = 0;
  std::uint64_t offer_count_ = 0;  // sparse deadline polling
};

// Maps via a compiled plan; byte-identical to lama_map(alloc, layout, opts)
// for the (alloc, layout, policy) triple the plan was compiled from. The
// convenience overload allocates its own executor and result; the
// executor/out overload reuses both, which is the zero-allocation
// steady-state form.
MappingResult lama_map_compiled(const Allocation& alloc, const MapOptions& opts,
                                const MapPlan& plan);
void lama_map_compiled(const Allocation& alloc, const MapOptions& opts,
                       const MapPlan& plan, PlanExecutor& exec,
                       MappingResult& out);

namespace detail {
// Validation for the compiled entry points: everything validate_map_inputs
// checks except Allocation::validate() (the plan's tree was built from a
// validated allocation, and re-validating would allocate on the steady
// path), plus the policy guard — a plan compiled for the default iteration
// policy must not execute options that override it.
void validate_compiled_inputs(const Allocation& alloc, const MapOptions& opts,
                              const MapPlan& plan);
}  // namespace detail

}  // namespace lama
