// Property suite for fault-aware remapping: across randomized topologies,
// layouts, process counts, and failure sets, lama_remap must (a) leave every
// surviving rank's placement untouched and (b) place the displaced ranks
// exactly where a fresh lama_map over the survivor-restricted reduced
// allocation would — the remap is the paper's availability skipping applied
// to failures and survivors alike, nothing more. All randomness is seeded
// SplitMix64; any failure reproduces from the seed in the assertion message.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lama/remap.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/random.hpp"

namespace lama {
namespace {

bool survives(const MappingResult& m, std::size_t rank,
              const Allocation& reduced) {
  return m.node(rank) < reduced.num_nodes() && !m.pus(rank).empty() &&
         m.pus(rank).is_subset_of(
             reduced.node(m.node(rank)).topo.online_pus());
}

// The survivor-restricted allocation the displaced ranks must be mapped
// over: the reduced allocation with every surviving rank's PUs off-lined.
Allocation restrict_to_free(const Allocation& reduced,
                            const MappingResult& previous) {
  Allocation restricted = reduced;
  for (std::size_t i = 0; i < restricted.num_nodes(); ++i) {
    Bitmap allowed = restricted.node(i).topo.online_pus();
    for (std::size_t r = 0; r < previous.num_procs(); ++r) {
      if (previous.node(r) == i && survives(previous, r, reduced)) {
        allowed.and_not(previous.pus(r));
      }
    }
    restricted.mutable_node(i).topo.restrict_pus(allowed);
  }
  return restricted;
}

// A random failure set applied as topology restrictions: occasionally a
// whole node dies, otherwise a random subset of its PUs goes off-line. At
// least one node is left fully intact so mapping stays possible.
Allocation random_failures(const Allocation& alloc, SplitMix64& rng) {
  Allocation reduced = alloc;
  const std::size_t spared = rng.next_below(reduced.num_nodes());
  for (std::size_t i = 0; i < reduced.num_nodes(); ++i) {
    if (i == spared) continue;
    NodeTopology& topo = reduced.mutable_node(i).topo;
    if (rng.next_bool(0.25)) {
      topo.set_object_disabled(ResourceType::kNode, 0, true);
      continue;
    }
    Bitmap allowed = topo.online_pus();
    for (std::size_t pu = 0; pu < topo.pu_count(); ++pu) {
      if (rng.next_bool(0.3)) allowed.and_not(Bitmap::single(pu));
    }
    if (allowed.count() > 0) topo.restrict_pus(allowed);
  }
  return reduced;
}

TEST(RemapPropertyTest, DisplacedMatchFreshMapSurvivorsUntouched) {
  const std::vector<std::string> layouts = {"nsch", "scbnh", "hcsn", "cnsh",
                                            "nbsch"};
  std::size_t exercised = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SplitMix64 rng(seed * 0x9e3779b9ULL);

    // 2-4 random nodes, sometimes heterogeneous.
    Cluster cluster;
    const std::size_t num_nodes = 2 + rng.next_below(3);
    for (std::size_t n = 0; n < num_nodes; ++n) {
      RandomTopologyOptions topo_opts;
      topo_opts.seed = rng.next();
      topo_opts.max_fanout = 3;
      topo_opts.smt = rng.next_bool(0.5);
      cluster.add_node(
          random_topology(topo_opts, "r" + std::to_string(n)));
    }
    const Allocation alloc = allocate_all(cluster);

    const std::string layout_str = layouts[rng.next_below(layouts.size())];
    const ProcessLayout layout = ProcessLayout::parse(layout_str);
    MapOptions opts;
    opts.np = 1 + rng.next_below(alloc.total_online_pus());
    opts.allow_oversubscribe = rng.next_bool(0.5);
    MappingResult previous;
    try {
      previous = lama_map(alloc, layout, opts);
    } catch (const OversubscribeError&) {
      // Coarse layouts (no 'h') count capacity in cores; a thread-granular
      // np can legitimately exceed it when sharing is off.
      continue;
    }

    const Allocation reduced = random_failures(alloc, rng);
    const std::string ctx = "seed=" + std::to_string(seed) +
                            " layout=" + layout_str +
                            " np=" + std::to_string(opts.np);

    // The displaced set is recomputed independently so the assertions below
    // (and the oversubscribe-refusal check) never trust lama_remap's output.
    std::vector<int> expect_displaced;
    for (std::size_t i = 0; i < previous.num_procs(); ++i) {
      if (!survives(previous, i, reduced)) {
        expect_displaced.push_back(static_cast<int>(i));
      }
    }

    RemapResult r;
    try {
      r = lama_remap(reduced, layout, opts, previous);
    } catch (const OversubscribeError&) {
      // Legitimate only when sharing is off AND the displaced ranks cannot
      // be placed on the survivor-restricted allocation without sharing:
      // either survivors hold every remaining PU, or a fresh map over the
      // free resources refuses for the same reason.
      EXPECT_FALSE(opts.allow_oversubscribe) << ctx;
      const Allocation restricted = restrict_to_free(reduced, previous);
      if (restricted.total_online_pus() > 0) {
        MapOptions sub = opts;
        sub.np = expect_displaced.size();
        EXPECT_THROW(lama_map(restricted, layout, sub), OversubscribeError)
            << ctx;
      }
      continue;
    }
    ++exercised;

    // (a) Survivors keep their placements verbatim, and the displaced list
    // is exactly the set of non-survivors, ascending.
    for (std::size_t i = 0; i < previous.num_procs(); ++i) {
      if (survives(previous, i, reduced)) {
        EXPECT_EQ(r.mapping.node(i), previous.node(i))
            << ctx << " rank " << i;
        EXPECT_EQ(r.mapping.pus(i).to_string(), previous.pus(i).to_string())
            << ctx << " rank " << i;
      }
    }
    EXPECT_EQ(r.displaced, expect_displaced) << ctx;
    EXPECT_EQ(r.surviving, opts.np - expect_displaced.size()) << ctx;

    // (b) Displaced ranks equal a fresh map over the survivor-restricted
    // allocation (or over the plain reduced one on the degraded-shared
    // path), in displacement order.
    if (!r.displaced.empty()) {
      const Allocation restricted = restrict_to_free(reduced, previous);
      const Allocation& expect_over =
          r.degraded_shared ? reduced : restricted;
      EXPECT_EQ(r.degraded_shared, restricted.total_online_pus() == 0) << ctx;
      MapOptions sub = opts;
      sub.np = r.displaced.size();
      const MappingResult fresh = lama_map(expect_over, layout, sub);
      for (std::size_t i = 0; i < r.displaced.size(); ++i) {
        const auto moved = static_cast<std::size_t>(r.displaced[i]);
        EXPECT_EQ(r.mapping.node(moved), fresh.node(i))
            << ctx << " displaced rank " << moved;
        EXPECT_EQ(r.mapping.pus(moved).to_string(), fresh.pus(i).to_string())
            << ctx << " displaced rank " << moved;
      }
    }

    // Every placement in the result is online on the reduced allocation.
    for (std::size_t q = 0; q < r.mapping.num_procs(); ++q) {
      ASSERT_LT(r.mapping.node(q), reduced.num_nodes()) << ctx;
      EXPECT_TRUE(r.mapping.pus(q).is_subset_of(
          reduced.node(r.mapping.node(q)).topo.online_pus()))
          << ctx << " rank " << q;
    }
  }
  // The loop must actually exercise remapping, not skip everything.
  EXPECT_GE(exercised, 10u);
}

TEST(RemapPropertyTest, RemapIsIdempotent) {
  // Remapping twice against the same reduced allocation changes nothing the
  // second time: after the first remap every rank survives.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SplitMix64 rng(seed);
    Cluster cluster;
    for (std::size_t n = 0; n < 3; ++n) {
      RandomTopologyOptions topo_opts;
      topo_opts.seed = rng.next();
      cluster.add_node(random_topology(topo_opts, "i" + std::to_string(n)));
    }
    const Allocation alloc = allocate_all(cluster);
    MapOptions opts;
    opts.np = 1 + rng.next_below(alloc.total_online_pus());
    opts.allow_oversubscribe = true;
    const ProcessLayout layout = ProcessLayout::parse("nsch");
    const MappingResult previous = lama_map(alloc, layout, opts);
    const Allocation reduced = random_failures(alloc, rng);

    RemapResult first;
    try {
      first = lama_remap(reduced, layout, opts, previous);
    } catch (const OversubscribeError&) {
      continue;
    }
    const RemapResult second =
        lama_remap(reduced, layout, opts, first.mapping);
    EXPECT_FALSE(second.any_displaced()) << "seed=" << seed;
    for (std::size_t i = 0; i < opts.np; ++i) {
      EXPECT_EQ(second.mapping.pus(i).to_string(),
                first.mapping.pus(i).to_string())
          << "seed=" << seed << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace lama
