// The Locality-Aware Mapping Algorithm (paper §IV, Figure 1): a recursive
// nested iteration over the maximal tree, with the leftmost layout letter as
// the innermost loop, skipping coordinates that do not exist or are
// unavailable on the targeted node, and wrapping around the whole space when
// more processes than resources must be placed.
#pragma once

#include <array>
#include <cstdint>

#include "cluster/cluster.hpp"
#include "lama/iteration.hpp"
#include "lama/layout.hpp"
#include "lama/mapping.hpp"

namespace lama {

class MaximalTree;

struct MapOptions {
  // Number of processes to place. Must be positive.
  std::size_t np = 0;

  // When false, placing more processes than online PUs throws
  // OversubscribeError (the common HPC policy: CPU-intensive jobs must not
  // share processing units). When true, the mapper wraps around the
  // iteration space as in Figure 1.
  bool allow_oversubscribe = true;

  // Smallest processing units each process needs (§III-A: "some applications
  // may need more than one processing unit — the application may be
  // multi-threaded"). Each process consumes this many mapping targets, all
  // from one node, gathered in iteration order (per-node accumulation, so
  // scatter layouts assemble several processes concurrently). Partial
  // accumulations left at the end of a sweep are discarded.
  std::size_t pus_per_proc = 1;

  // Per-level visit orders (defaults to the paper's sequential order).
  IterationPolicy iteration;

  // Cooperative deadline in steady-clock nanoseconds since epoch (0 = none).
  // The walk polls the clock every few thousand visited coordinates and at
  // every sweep boundary, throwing CancelledError once the deadline passes —
  // the mapping service uses this to cancel requests whose budget expired
  // while they were queued or mid-walk.
  std::uint64_t deadline_ns = 0;

  // Caps on how many processes may land under any single object of a level
  // (0 = unlimited) — the "restrict the total number of processes for any
  // particular resource" option of SLURM/ALPS (§II). caps[d] applies to the
  // level at canonical depth d; e.g. caps for kNode = 2 is "--npernode 2".
  // A capped-out coordinate is skipped like an unavailable one.
  std::array<std::size_t, kNumResourceTypes> resource_caps{};

  void set_cap(ResourceType level, std::size_t cap) {
    resource_caps[static_cast<std::size_t>(canonical_depth(level))] = cap;
  }
};

// Maps `opts.np` processes onto the allocation following the layout.
// Throws MappingError when the allocation is unusable and
// OversubscribeError per the policy above.
MappingResult lama_map(const Allocation& alloc, const ProcessLayout& layout,
                       const MapOptions& opts);

// Convenience overload: parse the layout string first.
MappingResult lama_map(const Allocation& alloc, const std::string& layout,
                       const MapOptions& opts);

// Maps onto a pre-built maximal tree. `mtree` must have been constructed
// from this same `alloc` and from a layout that keeps the same within-node
// levels as `layout` and agrees on whether 'n' is present — the only parts
// of a layout a tree depends on — so "scbnh" and "hcsbn" share one tree.
// A tree that does not fit throws MappingError. It is only read, never
// written, so one shared tree may serve many concurrent lama_map calls —
// this is the cached fast path of the mapping service (svc/), which pays
// the tree construction once per distinct (allocation, layout) and
// amortizes it over every repeated query, and the optimizer's, which
// builds one tree per group of seed layouts that agree on both
// (opt/candidates.hpp).
MappingResult lama_map(const Allocation& alloc, const ProcessLayout& layout,
                       const MapOptions& opts, const MaximalTree& mtree);

}  // namespace lama
