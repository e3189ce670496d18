#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/fixtures.hpp"
#include "lama/mapper.hpp"
#include "opt/candidates.hpp"
#include "sim/evaluator.hpp"
#include "sim/traffic.hpp"
#include "support/error.hpp"
#include "tmatch/comm_matrix.hpp"

namespace lama::opt {
namespace {

// Three commodity nodes, 16 PUs each. np=36 misaligns with node capacity
// (pack splits 16/16/4), which is where the optimizer earns its keep.
Allocation bench_allocation() {
  return allocate_all(Cluster::homogeneous(3, "socket:2 core:4 pu:2"));
}

CommMatrix halo36() {
  return CommMatrix::from_pattern(make_named_pattern("halo:65536", 36));
}

// Clustered all-to-all: every pair talks, 6-rank groups carry 16x volume.
CommMatrix clustered_alltoall36() {
  CommMatrix m(36);
  for (int i = 0; i < 36; ++i) {
    for (int j = i + 1; j < 36; ++j) {
      m.add(i, j, (i / 6 == j / 6) ? 65536.0 : 4096.0);
    }
  }
  return m;
}

// A Parallel that fans indices across `threads` std::threads, pulling work
// from a shared counter — maximally order-scrambling, per the contract.
Parallel threaded(std::size_t threads) {
  return [threads](std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          fn(i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  };
}

// A Parallel that runs the tasks sequentially but in reverse index order.
void reversed(std::size_t count, const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = count; i-- > 0;) fn(i);
}

void expect_identical(const OptimizeResult& a, const OptimizeResult& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_DOUBLE_EQ(a.cost_ns, b.cost_ns);
  ASSERT_EQ(a.mapping.num_procs(), b.mapping.num_procs());
  for (std::size_t i = 0; i < a.mapping.num_procs(); ++i) {
    EXPECT_EQ(a.mapping.node(i), b.mapping.node(i));
    EXPECT_EQ(a.mapping.pus(i).to_string(),
              b.mapping.pus(i).to_string());
  }
}

TEST(Candidates, CanonicalHeadThenSearchSeeds) {
  const Allocation alloc = bench_allocation();
  const auto specs = make_candidates(alloc, 36, 16);
  const auto& canon = canonical_layouts();
  ASSERT_GT(specs.size(), canon.size());
  for (std::size_t i = 0; i < canon.size(); ++i) {
    EXPECT_TRUE(specs[i].canonical) << i;
    EXPECT_EQ(specs[i].layout, canon[i]);
  }
  EXPECT_EQ(specs[canon.size()].source, "multisection");
  EXPECT_EQ(specs.back().kind, CandidateSpec::Kind::kCappedPack);
}

TEST(Candidates, TruncationNeverCutsCanonicalHead) {
  const Allocation alloc = bench_allocation();
  const auto canon_count = canonical_layouts().size();
  const auto specs = make_candidates(alloc, 36, 2);
  ASSERT_GE(specs.size(), canon_count);
  for (std::size_t i = 0; i < canon_count; ++i) {
    EXPECT_TRUE(specs[i].canonical);
  }
}

TEST(Objective, CongestionTermSeparatesShapes) {
  // Uniform all-to-all is invariant under rank permutation, so only the
  // NIC term can distinguish a 16/16/4 pack from a balanced 12/12/12.
  const Allocation alloc = bench_allocation();
  const CommMatrix m =
      CommMatrix::from_pattern(make_named_pattern("alltoall:65536", 36));
  const DistanceModel model = DistanceModel::commodity();

  MapOptions packed;
  packed.np = 36;
  packed.allow_oversubscribe = true;
  const MappingResult pack =
      lama_map(alloc, ProcessLayout::parse("hcsbn"), packed);

  MapOptions capped = packed;
  capped.set_cap(ResourceType::kNode, 12);
  const MappingResult balanced =
      lama_map(alloc, ProcessLayout::parse("hcsbn"), capped);

  EXPECT_LT(placement_cost_ns(alloc, balanced, m, model),
            placement_cost_ns(alloc, pack, m, model));
}

// J as the evaluator prices it: one message per communicating pair of the
// matrix's upper triangle, the evaluator's total, and the hottest NIC's
// drain time at network bandwidth, weighted 8.
double evaluator_cost_ns(const Allocation& alloc, const MappingResult& mapping,
                         const CommMatrix& matrix, const DistanceModel& model) {
  TrafficPattern pattern{"matrix", matrix.np(), {}};
  for (int a = 0; a < matrix.np(); ++a) {
    for (int b = a + 1; b < matrix.np(); ++b) {
      const double bytes = matrix.at(a, b);
      if (bytes <= 0.0) continue;
      pattern.messages.push_back({a, b, static_cast<std::size_t>(bytes)});
    }
  }
  const CostReport report = evaluate_mapping(alloc, mapping, pattern, model);
  return report.total_ns +
         8.0 * (static_cast<double>(report.max_nic_bytes) /
                model.network_cost().bandwidth_gb_s);
}

TEST(Objective, MatchesTheEvaluatorBitForBit) {
  const DistanceModel model = DistanceModel::commodity();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SplitMix64 rng(seed);
    const Allocation alloc = test::random_allocation(rng);
    const int np = 2 + static_cast<int>(rng.next_below(95));
    const int degree =
        std::min(np - 1, 1 + static_cast<int>(rng.next_below(8)));
    const CommMatrix matrix = test::random_comm_matrix(np, degree, rng);
    const auto specs =
        make_candidates(alloc, static_cast<std::size_t>(np), 16);
    for (const std::vector<std::size_t>& group : group_by_tree(specs)) {
      const auto tree = group_tree(alloc, specs[group.front()]);
      for (const std::size_t i : group) {
        MappingResult m;
        try {
          m = realize_candidate(alloc, matrix, static_cast<std::size_t>(np),
                                specs[i], tree.get());
        } catch (const Error&) {
          continue;  // seed unavailable on this allocation
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      placement_cost_ns(alloc, m, matrix, model)),
                  std::bit_cast<std::uint64_t>(
                      evaluator_cost_ns(alloc, m, matrix, model)))
            << "seed=" << seed << " np=" << np << " " << specs[i].source;
      }
    }
  }
}

TEST(Candidates, SeedsOnSharedTreesMatchFreshWalks) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SplitMix64 rng(seed);
    const Allocation alloc = test::random_allocation(rng);
    const std::size_t np = 1 + rng.next_below(2 * alloc.total_online_pus());
    const CommMatrix matrix(static_cast<int>(np));
    const auto specs = make_candidates(alloc, np, 16);
    const auto groups = group_by_tree(specs);
    // The six orderings of "scbnh" with the "hcsbn" packs, the two
    // 9-letter layouts, and multisection, which walks no tree.
    ASSERT_EQ(groups.size(), 3u);
    std::vector<std::size_t> seen;
    for (const std::vector<std::size_t>& group : groups) {
      const auto tree = group_tree(alloc, specs[group.front()]);
      EXPECT_EQ(tree == nullptr, specs[group.front()].kind ==
                                     CandidateSpec::Kind::kMultisection);
      for (const std::size_t i : group) {
        seen.push_back(i);
        if (tree == nullptr) continue;
        const std::string ctx =
            "seed=" + std::to_string(seed) + " np=" + std::to_string(np) +
            " " + specs[i].source;
        MapOptions opts;
        opts.np = np;
        if (specs[i].kind == CandidateSpec::Kind::kCappedPack) {
          opts.set_cap(ResourceType::kNode, specs[i].npernode);
        }
        MappingResult fresh;
        try {
          fresh = lama_map(alloc, specs[i].layout, opts);
        } catch (const Error&) {
          EXPECT_THROW(
              realize_candidate(alloc, matrix, np, specs[i], tree.get()),
              Error)
              << ctx;
          continue;
        }
        test::expect_identical_mappings(
            fresh, realize_candidate(alloc, matrix, np, specs[i], tree.get()),
            ctx);
      }
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), specs.size());  // every seed in one group
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(Optimizer, BeatsBestCanonicalOnMisalignedHalo) {
  const Allocation alloc = bench_allocation();
  const OptimizeResult r = optimize_placement(alloc, halo36(), OptBudget{},
                                              DistanceModel::commodity());
  EXPECT_LT(r.cost_ns, r.best_layout_cost_ns);
  EXPECT_GT(r.improvement(), 0.05);
  // The winner must be a search seed, not a canonical layout.
  EXPECT_EQ(r.source.rfind("layout:", 0), std::string::npos) << r.source;
}

TEST(Optimizer, BeatsBestCanonicalOnClusteredAlltoall) {
  const Allocation alloc = bench_allocation();
  const OptimizeResult r =
      optimize_placement(alloc, clustered_alltoall36(), OptBudget{},
                         DistanceModel::commodity());
  EXPECT_LT(r.cost_ns, r.best_layout_cost_ns);
  EXPECT_GT(r.improvement(), 0.2);
}

TEST(Optimizer, DeterministicAtAnyThreadCount) {
  const Allocation alloc = bench_allocation();
  const CommMatrix m = clustered_alltoall36();
  const DistanceModel model = DistanceModel::commodity();
  const OptimizeResult inline_run =
      optimize_placement(alloc, m, OptBudget{}, model);
  expect_identical(inline_run,
                   optimize_placement(alloc, m, OptBudget{}, model, reversed));
  for (std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(
        inline_run,
        optimize_placement(alloc, m, OptBudget{}, model, threaded(threads)));
  }
}

TEST(Optimizer, BudgetTruncatesCandidatesButKeepsBaseline) {
  const Allocation alloc = bench_allocation();
  OptBudget narrow;
  narrow.max_candidates = 1;
  narrow.refine_passes = 0;
  const OptimizeResult r =
      optimize_placement(alloc, halo36(), narrow, DistanceModel::commodity());
  // The tail (multisection, capped packs) is gone, but the canonical head
  // survives any budget — the static baseline must always be priced.
  EXPECT_EQ(r.candidates_evaluated, canonical_layouts().size());
  EXPECT_FALSE(r.best_layout.empty());
  EXPECT_EQ(r.refine_swaps, 0u);
  EXPECT_EQ(r.source.find("+refined"), std::string::npos);
  // With only canonical seeds in play the winner is one of them.
  EXPECT_EQ(r.source.rfind("layout:", 0), 0u) << r.source;
}

TEST(Optimizer, ExpiredDeadlineThrowsCancelled) {
  const Allocation alloc = bench_allocation();
  OptBudget expired;
  expired.deadline_ns = 1;  // steady-clock epoch: long past
  EXPECT_THROW(optimize_placement(alloc, halo36(), expired,
                                  DistanceModel::commodity()),
               CancelledError);
  EXPECT_THROW(optimize_placement(alloc, halo36(), expired,
                                  DistanceModel::commodity(), threaded(4)),
               CancelledError);
}

TEST(Optimizer, BudgetKeyExcludesDeadline) {
  OptBudget a;
  OptBudget b;
  b.deadline_ns = 123456789;
  EXPECT_EQ(a.key(), b.key());
  b.refine_passes = 3;
  EXPECT_NE(a.key(), b.key());
  OptBudget c;
  c.max_candidates = 4;
  EXPECT_NE(a.key(), c.key());
}

TEST(Optimizer, RefinementOnlyAcceptedWhenObjectiveImproves) {
  // On a pattern the seed already places optimally, refinement must not
  // worsen the reported cost or claim swaps it did not keep.
  const Allocation alloc = bench_allocation();
  const CommMatrix m =
      CommMatrix::from_pattern(make_named_pattern("ring:4096", 36));
  const OptimizeResult r =
      optimize_placement(alloc, m, OptBudget{}, DistanceModel::commodity());
  EXPECT_LE(r.cost_ns, r.seed_cost_ns);
}

}  // namespace
}  // namespace lama::opt
