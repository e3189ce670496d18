// Seed candidates for the placement optimizer (optimizer.hpp). The search
// space of §IV's layouts is 9! orderings; exhausting it per request is the
// autotuner's offline job, not a service verb's. Instead the optimizer
// evaluates a small, diverse seed set and refines the winner:
//   * canonical layouts — a curated spread from full scatter to full pack,
//     the static placements a caller could have asked for by name. The best
//     of these is also the baseline an optimized placement must beat;
//   * hierarchical multisection — the communication matrix partitioned down
//     the hardware tree (tmatch/treematch.hpp, after Schulz & Traeff's
//     multisection formulation);
//   * capped packings — the pack layout under an npernode cap for each
//     feasible node count, sweeping the shape axis (few hot nodes with
//     cheap intra-node traffic vs many cool NICs) that no single canonical
//     layout covers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "tmatch/comm_matrix.hpp"

namespace lama::opt {

// One seed of the search: how to produce a mapping for np processes.
struct CandidateSpec {
  // "layout:<string>", "multisection", or "pack:<k>" — stable names that
  // appear in OPTIMIZE responses, traces, and bench output.
  std::string source;
  // True for the canonical-layout seeds that define the static baseline.
  bool canonical = false;

  enum class Kind { kLayout, kMultisection, kCappedPack } kind = Kind::kLayout;
  std::string layout;        // kLayout / kCappedPack
  std::size_t npernode = 0;  // kCappedPack
};

// The canonical layout strings the optimizer seeds from (and the baseline
// set benches compare against): the paper's default scbnh, full pack and
// full scatter, and a spread of intermediate permutations.
const std::vector<std::string>& canonical_layouts();

// Builds the seed list for `np` processes on `alloc`, in deterministic
// order: canonical layouts, multisection, then the capped-pack family (at
// most `max_pack_shapes` node counts, spread evenly across the feasible
// range). `max_candidates` truncates the tail, never the canonical head.
std::vector<CandidateSpec> make_candidates(const Allocation& alloc,
                                           std::size_t np,
                                           std::size_t max_candidates,
                                           std::size_t max_pack_shapes = 8);

// The seeds grouped by the maximal tree they walk, as spec indices in
// ascending order, the groups in the order of their first index. A tree
// depends on its layout only through the within-node levels the layout
// keeps and whether it has 'n' (lama/maximal_tree.cpp), so the layout seeds
// that agree on both share one: the canonical head and the capped packs
// form two groups on any allocation. Multisection, which walks no tree, is
// a group of its own.
std::vector<std::vector<std::size_t>> group_by_tree(
    const std::vector<CandidateSpec>& specs);

// The tree a group's layout seeds share: built from the group's first spec
// (null for multisection).
std::unique_ptr<const MaximalTree> group_tree(const Allocation& alloc,
                                              const CandidateSpec& first);

// Materializes one candidate: runs the lama walk on `tree`, its group's
// tree (only read, so concurrent calls may share it), or the multisection
// partitioner over `graph`, for which `tree` is null. Throws on infeasible
// candidates (e.g. multisection beyond capacity) — callers treat that as
// "seed not available", not an error.
MappingResult realize_candidate(const Allocation& alloc, const CommGraph& graph,
                                std::size_t np, const CandidateSpec& spec,
                                const MaximalTree* tree);
// The same for a caller holding only the matrix: builds its graph.
MappingResult realize_candidate(const Allocation& alloc, const CommMatrix& matrix,
                                std::size_t np, const CandidateSpec& spec,
                                const MaximalTree* tree);

}  // namespace lama::opt
