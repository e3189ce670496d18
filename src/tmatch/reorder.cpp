#include "tmatch/reorder.hpp"

#include <algorithm>

#include "sim/evaluator.hpp"
#include "support/error.hpp"

namespace lama {

ReorderResult reorder_ranks(const Allocation& alloc,
                            const MappingResult& mapping,
                            const CommMatrix& matrix,
                            const DistanceModel& model,
                            std::size_t max_passes) {
  return reorder_ranks(alloc, mapping, CommGraph(matrix), model, max_passes);
}

ReorderResult reorder_ranks(const Allocation& alloc,
                            const MappingResult& mapping,
                            const CommGraph& graph,
                            const DistanceModel& model,
                            std::size_t max_passes) {
  const int np = static_cast<int>(mapping.num_procs());
  if (np != graph.np()) {
    throw MappingError("reorder: mapping has " + std::to_string(np) +
                       " ranks, matrix " + std::to_string(graph.np()));
  }
  if (max_passes == 0) {
    throw MappingError("reorder needs at least one pass");
  }

  const SlotPricer pricer(alloc, mapping, model);
  // slot_of[rank] = slot currently occupied by that rank.
  std::vector<int> slot_of(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) slot_of[static_cast<std::size_t>(r)] = r;

  // Cost of one rank against its partners, under the current assignment.
  auto rank_cost = [&](int r) {
    const std::size_t slot =
        static_cast<std::size_t>(slot_of[static_cast<std::size_t>(r)]);
    double ns = 0.0;
    for (const CommGraph::Edge& e : graph.row(r)) {
      ns += pricer.pair_ns(
          slot,
          static_cast<std::size_t>(slot_of[static_cast<std::size_t>(e.peer)]),
          static_cast<std::size_t>(e.bytes));
    }
    return ns;
  };
  // cost[r] == rank_cost(r) at all times: a rank's cost moves only when it
  // or one of its partners changes slot, and those are recomputed in full
  // after every kept swap, so each entry holds the bits a fresh row sum
  // would give.
  std::vector<double> cost(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) cost[static_cast<std::size_t>(r)] = rank_cost(r);
  auto total_cost = [&]() {
    double ns = 0.0;
    for (const double c : cost) ns += c;
    return ns / 2.0;  // every pair counted twice
  };
  auto refresh_partners = [&](int r) {
    for (const CommGraph::Edge& e : graph.row(r)) {
      cost[static_cast<std::size_t>(e.peer)] = rank_cost(e.peer);
    }
  };

  ReorderResult result;
  result.initial_cost_ns = total_cost();

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    bool improved = false;
    for (int a = 0; a < np; ++a) {
      for (int b = a + 1; b < np; ++b) {
        // Gain of swapping the slots of ranks a and b: only their own rows
        // change; the a<->b term itself is symmetric and cancels.
        const double before = cost[static_cast<std::size_t>(a)] +
                              cost[static_cast<std::size_t>(b)];
        std::swap(slot_of[static_cast<std::size_t>(a)],
                  slot_of[static_cast<std::size_t>(b)]);
        const double after_a = rank_cost(a);
        const double after_b = rank_cost(b);
        if (after_a + after_b + 1e-9 < before) {
          improved = true;  // keep the swap
          ++result.swaps_applied;
          cost[static_cast<std::size_t>(a)] = after_a;
          cost[static_cast<std::size_t>(b)] = after_b;
          refresh_partners(a);
          refresh_partners(b);
        } else {
          std::swap(slot_of[static_cast<std::size_t>(a)],
                    slot_of[static_cast<std::size_t>(b)]);
        }
      }
    }
    if (!improved) break;  // local optimum
  }

  result.final_cost_ns = total_cost();
  result.permutation = slot_of;

  // Materialize the reordered mapping.
  result.mapping = mapping;
  result.mapping.layout = mapping.layout + "+reorder";
  for (int r = 0; r < np; ++r) {
    result.mapping.copy_rank(
        static_cast<std::size_t>(r), mapping,
        static_cast<std::size_t>(slot_of[static_cast<std::size_t>(r)]));
  }
  return result;
}

}  // namespace lama
