#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/mapper.hpp"
#include "opt/candidates.hpp"
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
