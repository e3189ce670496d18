#include "opt/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <span>
#include <vector>

#include "obs/tracer.hpp"
#include "opt/candidates.hpp"
#include "sim/evaluator.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "tmatch/reorder.hpp"

namespace lama::opt {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void check_deadline(std::uint64_t deadline_ns) {
  if (deadline_ns != 0 && steady_now_ns() >= deadline_ns) {
    throw CancelledError("optimize budget expired");
  }
}

// J over the matrix's nonzero upper-triangle cells: one message per
// communicating pair (the matrix already folded direction and multiplicity,
// so total volume is preserved), in ascending (a, b) order — the order and
// the terms the evaluator adds for the pattern with those messages, so the
// total has the same bits. `for_each_pair(visit)` calls visit(a, b, bytes)
// for those cells in that order; the two overloads below differ only in
// where they read them.
template <typename ForEachPair>
double price_pairs(const Allocation& alloc, const MappingResult& mapping,
                   const DistanceModel& model, int np,
                   ForEachPair&& for_each_pair) {
  if (static_cast<std::size_t>(np) != mapping.num_procs()) {
    throw MappingError("matrix has " + std::to_string(np) +
                       " ranks but the mapping " +
                       std::to_string(mapping.num_procs()));
  }
  const SlotPricer pricer(alloc, mapping, model);
  double total_ns = 0.0;
  std::vector<std::size_t> nic_bytes(alloc.num_nodes(), 0);
  for_each_pair([&](std::size_t slot_a, std::size_t slot_b, double volume) {
    const std::size_t bytes = static_cast<std::size_t>(volume);
    total_ns += pricer.pair_ns(slot_a, slot_b, bytes);
    if (pricer.node(slot_a) != pricer.node(slot_b)) {
      nic_bytes[pricer.node(slot_a)] += bytes;
      nic_bytes[pricer.node(slot_b)] += bytes;
    }
  });
  std::size_t max_nic_bytes = 0;
  for (const std::size_t b : nic_bytes) {
    max_nic_bytes = std::max(max_nic_bytes, b);
  }
  // Congestion term: the hottest NIC drains its bytes serially at network
  // bandwidth, weighted by the fan-in a commodity node aims at one
  // interface. Without this term, rank-permutation-invariant traffic
  // (uniform all-to-all) cannot distinguish distribution shapes — the
  // evaluator's total is minimized by the most skewed packing, which
  // saturates one NIC. The weight is a calibration constant in the spirit
  // of the distance model's link costs: its magnitude (not its exact
  // value) is what makes NIC pressure comparable to per-message cost.
  constexpr double kCongestionWeight = 8.0;
  const double drain_ns = static_cast<double>(max_nic_bytes) /
                          model.network_cost().bandwidth_gb_s;
  return total_ns + kCongestionWeight * drain_ns;
}

// Row a of the graph lists a's partners in ascending order; the cells of
// the upper triangle are those with peer > a.
double placement_cost_ns(const Allocation& alloc, const MappingResult& mapping,
                         const CommGraph& graph, const DistanceModel& model) {
  return price_pairs(alloc, mapping, model, graph.np(), [&](auto&& visit) {
    for (int a = 0; a < graph.np(); ++a) {
      for (const CommGraph::Edge& e : graph.row(a)) {
        if (e.peer > a) {
          visit(static_cast<std::size_t>(a),
                static_cast<std::size_t>(e.peer), e.bytes);
        }
      }
    }
  });
}

struct Priced {
  bool feasible = false;
  double cost_ns = std::numeric_limits<double>::infinity();
  MappingResult mapping;
};

}  // namespace

std::uint64_t OptBudget::key() const {
  std::uint64_t h = fnv1a64("opt-budget");
  h = hash_combine(h, static_cast<std::uint64_t>(max_candidates));
  h = hash_combine(h, static_cast<std::uint64_t>(refine_passes));
  return h;
}

// The dense upper triangle, skipping the cells the graph omits (zeros).
double placement_cost_ns(const Allocation& alloc, const MappingResult& mapping,
                         const CommMatrix& matrix, const DistanceModel& model) {
  const int np = matrix.np();
  return price_pairs(alloc, mapping, model, np, [&](auto&& visit) {
    for (int a = 0; a < np; ++a) {
      const std::span<const double> row = matrix.row(a);
      for (int b = a + 1; b < np; ++b) {
        const double bytes = row[static_cast<std::size_t>(b)];
        if (bytes > 0.0) {
          visit(static_cast<std::size_t>(a), static_cast<std::size_t>(b),
                bytes);
        }
      }
    }
  });
}

OptimizeResult optimize_placement(const Allocation& alloc,
                                  const CommMatrix& matrix,
                                  const OptBudget& budget,
                                  const DistanceModel& model,
                                  const Parallel& parallel) {
  const std::size_t np = static_cast<std::size_t>(matrix.np());
  const std::vector<CandidateSpec> specs =
      make_candidates(alloc, np, budget.max_candidates);
  if (specs.empty()) throw MappingError("no placement candidates for np");
  check_deadline(budget.deadline_ns);

  // Phase 1: price every seed. The graph is built here, once, and only
  // read by the tasks. The seeds run one tree group at a time: the group's
  // tree is built before its tasks are dispatched and dropped after they
  // join, so one seed tree is alive at a time. Each task writes only its
  // own slot, so any execution order yields the same vector; infeasible
  // seeds (multisection beyond capacity, a cap too tight for np) stay
  // infinite-cost. Deadline expiry inside a task must not be mistaken for
  // infeasibility — it is re-checked (and throws) on the coordinating
  // thread after the join.
  const CommGraph graph(matrix);
  std::vector<Priced> priced(specs.size());
  auto eval_one = [&](std::size_t i, const MaximalTree* tree) {
    const obs::SpanScope span(obs::Stage::kOptCandidate,
                              static_cast<std::uint32_t>(i));
    try {
      MappingResult m = realize_candidate(alloc, graph, np, specs[i], tree);
      const double cost = placement_cost_ns(alloc, m, graph, model);
      priced[i].mapping = std::move(m);
      priced[i].cost_ns = cost;
      priced[i].feasible = true;
    } catch (const Error&) {
      // Seed unavailable on this allocation; leave the slot infeasible.
    }
    check_deadline(budget.deadline_ns);
  };
  for (const std::vector<std::size_t>& group : group_by_tree(specs)) {
    const std::unique_ptr<const MaximalTree> tree =
        group_tree(alloc, specs[group.front()]);
    if (parallel) {
      parallel(group.size(), [&](std::size_t k) {
        try {
          eval_one(group[k], tree.get());
        } catch (const CancelledError&) {
          // Swallowed here so one expired task cannot tear down the pool;
          // rethrown below once every slot has settled.
        }
      });
    } else {
      for (const std::size_t i : group) eval_one(i, tree.get());
    }
  }
  check_deadline(budget.deadline_ns);

  // Phase 2: deterministic winner — lowest cost, earliest index on ties.
  std::size_t best = specs.size();
  std::size_t best_canonical = specs.size();
  std::size_t evaluated = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!priced[i].feasible) continue;
    ++evaluated;
    if (best == specs.size() || priced[i].cost_ns < priced[best].cost_ns) {
      best = i;
    }
    if (specs[i].canonical &&
        (best_canonical == specs.size() ||
         priced[i].cost_ns < priced[best_canonical].cost_ns)) {
      best_canonical = i;
    }
  }
  if (best == specs.size()) {
    throw MappingError("no feasible placement candidate");
  }

  OptimizeResult result;
  result.source = specs[best].source;
  result.seed_cost_ns = priced[best].cost_ns;
  result.cost_ns = priced[best].cost_ns;
  result.candidates_evaluated = evaluated;
  if (best_canonical != specs.size()) {
    result.best_layout = specs[best_canonical].layout;
    result.best_layout_cost_ns = priced[best_canonical].cost_ns;
  }
  result.mapping = std::move(priced[best].mapping);
  priced.clear();  // the other seeds' placements: refinement needs none

  // Phase 3: refine the winner by pairwise rank exchange. The reorderer
  // minimizes evaluator cost, not J; accept its permutation only if J —
  // the objective the caller sees — actually improved.
  if (budget.refine_passes > 0 && np > 1) {
    check_deadline(budget.deadline_ns);
    const obs::SpanScope refine_span(obs::Stage::kOptRefine);
    ReorderResult refined = reorder_ranks(alloc, result.mapping, graph, model,
                                          budget.refine_passes);
    result.refine_passes = refined.passes;
    if (refined.swaps_applied > 0) {
      const double refined_cost =
          placement_cost_ns(alloc, refined.mapping, graph, model);
      if (refined_cost < result.cost_ns) {
        result.cost_ns = refined_cost;
        result.refine_swaps = refined.swaps_applied;
        result.mapping = std::move(refined.mapping);
        result.source += "+refined";
      }
    }
  }
  check_deadline(budget.deadline_ns);
  return result;
}

}  // namespace lama::opt
