// Communication-aware hierarchical mapping in the spirit of TreeMatch
// (Jeannot & Mercier, Euro-Par 2010 — reference [3] of the paper). Where the
// LAMA applies a *pattern-agnostic* user-chosen iteration order, this
// algorithm consumes the application's communication matrix and recursively
// partitions the processes down the hardware tree so that heavily-
// communicating processes land under shared ancestors.
//
// The partitioner is greedy: at each tree object, processes are split among
// the children (respecting each child's online-PU capacity, filled in child
// order) by repeatedly seeding a part with the most-communicating unassigned
// process and growing it with the process of highest affinity to the part.
// This is the classic quality/complexity trade-off of the TreeMatch family:
// O(n^2 · depth), deterministic, near-optimal on hierarchical topologies.
#pragma once

#include "cluster/cluster.hpp"
#include "lama/mapper.hpp"
#include "lama/mapping.hpp"
#include "tmatch/comm_matrix.hpp"

namespace lama {

// Maps `matrix.np()` processes. MapOptions::np must equal matrix.np() (or be
// 0, in which case it is taken from the matrix). Unlike the LAMA this
// algorithm does not wrap around: np beyond the online capacity throws
// OversubscribeError regardless of policy. Iteration policies are not
// consulted (the matrix, not an order, drives placement).
MappingResult map_treematch(const Allocation& alloc, const CommMatrix& matrix,
                            const MapOptions& opts);
// The same over the matrix's graph, for callers that already built it (the
// CommMatrix overload builds one and delegates here).
MappingResult map_treematch(const Allocation& alloc, const CommGraph& graph,
                            const MapOptions& opts);

// Registers a "treematch" rmaps component (priority 40) bound to a fixed
// communication matrix. Component args are unused.
class RmapsRegistry;  // lama/rmaps.hpp
void register_treematch_component(RmapsRegistry& registry, CommMatrix matrix);

}  // namespace lama
