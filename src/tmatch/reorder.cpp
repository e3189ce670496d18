#include "tmatch/reorder.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace lama {

namespace {

// Pairwise communication cost between two slots for a given byte volume.
struct SlotCoster {
  const Allocation& alloc;
  const DistanceModel& model;
  std::vector<std::size_t> node;
  std::vector<std::size_t> pu;

  SlotCoster(const Allocation& a, const MappingResult& mapping,
             const DistanceModel& m)
      : alloc(a), model(m) {
    node.resize(mapping.num_procs());
    pu.resize(mapping.num_procs());
    for (std::size_t s = 0; s < mapping.num_procs(); ++s) {
      node[s] = mapping.node(s);
      pu[s] = mapping.representative_pu(s);
    }
  }

  [[nodiscard]] double pair_ns(int slot_a, int slot_b, double bytes) const {
    if (bytes <= 0.0) return 0.0;
    return model.message_ns(alloc, node[static_cast<std::size_t>(slot_a)],
                            pu[static_cast<std::size_t>(slot_a)],
                            node[static_cast<std::size_t>(slot_b)],
                            pu[static_cast<std::size_t>(slot_b)],
                            static_cast<std::size_t>(bytes));
  }
};

}  // namespace

ReorderResult reorder_ranks(const Allocation& alloc,
                            const MappingResult& mapping,
                            const CommMatrix& matrix,
                            const DistanceModel& model,
                            std::size_t max_passes) {
  const int np = static_cast<int>(mapping.num_procs());
  if (np != matrix.np()) {
    throw MappingError("reorder: mapping has " + std::to_string(np) +
                       " ranks, matrix " + std::to_string(matrix.np()));
  }
  if (max_passes == 0) {
    throw MappingError("reorder needs at least one pass");
  }

  const SlotCoster coster(alloc, mapping, model);
  // slot_of[rank] = slot currently occupied by that rank.
  std::vector<int> slot_of(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) slot_of[static_cast<std::size_t>(r)] = r;

  // Cost of one rank against everyone, under the current assignment.
  auto rank_cost = [&](int r) {
    double ns = 0.0;
    for (int q = 0; q < np; ++q) {
      if (q == r) continue;
      const double bytes = matrix.at(r, q);
      if (bytes > 0.0) {
        ns += coster.pair_ns(slot_of[static_cast<std::size_t>(r)],
                             slot_of[static_cast<std::size_t>(q)], bytes);
      }
    }
    return ns;
  };
  auto total_cost = [&]() {
    double ns = 0.0;
    for (int r = 0; r < np; ++r) ns += rank_cost(r);
    return ns / 2.0;  // every pair counted twice
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
        const double before = rank_cost(a) + rank_cost(b);
        std::swap(slot_of[static_cast<std::size_t>(a)],
                  slot_of[static_cast<std::size_t>(b)]);
        const double after = rank_cost(a) + rank_cost(b);
        if (after + 1e-9 < before) {
          improved = true;  // keep the swap
          ++result.swaps_applied;
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
