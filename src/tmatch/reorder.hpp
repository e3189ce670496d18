// Topology-aware rank reordering: keep the *slots* of an existing mapping
// (which processes run where is already decided by the resource manager or
// a regular mapping) but permute which MPI rank occupies which slot so that
// heavily-communicating ranks end up close. This is the complementary
// technique to remapping in the literature the paper draws on (Jeannot &
// Mercier's line of work; MPI graph communicators): it needs no launch-time
// control, only a rank permutation the application applies.
//
// Algorithm: greedy pairwise exchange. Each pass sweeps the rank pairs
// (a, b), a < b, in order and keeps every swap that lowers the two ranks'
// summed cost by more than 1e-9 ns as it meets it, repeating until a pass
// keeps none or the pass budget is exhausted. Deterministic.
//
// A swap changes only the two ranks' rows, and each rank's cost is cached,
// so pricing one candidate swap reads the two ranks' rows of the matrix's
// CSR graph (tmatch/comm_matrix.hpp) and nothing else; a kept swap
// re-prices the two ranks and their partners. A pass costs O(np^2 * d) for
// an average degree d; on a dense matrix (d = np - 1) that is still O(np^3).
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/mapping.hpp"
#include "sim/distance_model.hpp"
#include "tmatch/comm_matrix.hpp"

namespace lama {

struct ReorderResult {
  // permutation[new_rank] = slot index (the placement of the original
  // mapping that this rank now occupies).
  std::vector<int> permutation;
  double initial_cost_ns = 0.0;
  double final_cost_ns = 0.0;
  std::size_t swaps_applied = 0;
  std::size_t passes = 0;
  // The reordered mapping: placement[r] is the original slot permutation[r],
  // with rank fields rewritten.
  MappingResult mapping;

  [[nodiscard]] double improvement() const {
    return initial_cost_ns <= 0.0
               ? 0.0
               : (initial_cost_ns - final_cost_ns) / initial_cost_ns;
  }
};

// Reorders the mapping's ranks against the matrix. The mapping and matrix
// must agree on the process count. `max_passes` bounds the improvement
// loop (>= 1).
ReorderResult reorder_ranks(const Allocation& alloc,
                            const MappingResult& mapping,
                            const CommMatrix& matrix,
                            const DistanceModel& model,
                            std::size_t max_passes = 8);

// The same, against the matrix's graph when the caller already holds it.
ReorderResult reorder_ranks(const Allocation& alloc,
                            const MappingResult& mapping,
                            const CommGraph& graph,
                            const DistanceModel& model,
                            std::size_t max_passes = 8);

}  // namespace lama
