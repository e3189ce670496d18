// A MaximalTree prunes each distinct node topology once and lets every node
// of that content share the PrunedTree (lama/maximal_tree.hpp). These tests
// run it over seeded heterogeneous allocations in which shapes repeat,
// some copies are off-lined whole or in part, and slot counts vary:
//   * every node's shared pruned tree equals a PrunedTree built fresh from
//     that node's own topology, vertex by vertex (type, available PUs,
//     children) and in its level widths;
//   * the tree builds exactly one pruned tree per distinct node content;
//   * the reference walk on the shared trees, the compiled plan, and the
//     reference walk on the same allocation with every node made distinct
//     (so no pruned tree is shared) give identical mappings,
//     pu_oversubscribed included, under pus=1..4, oversubscription and
//     resource caps. The last one is the oracle that a per-vertex count
//     which forgot the node would fail.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/random.hpp"
#include "topo/serialize.hpp"

namespace lama {
namespace {

// 3-12 nodes drawn from 1-3 random shapes (repeats are copies, so some
// share their topology tree and some only their content), with about a
// quarter of the nodes off-lined whole or in part and mixed slot counts.
Allocation repeated_allocation(SplitMix64& rng) {
  std::vector<NodeTopology> shapes;
  const std::size_t distinct = 1 + rng.next_below(3);
  for (std::size_t s = 0; s < distinct; ++s) {
    RandomTopologyOptions opts;
    opts.seed = rng.next();
    opts.max_fanout = 3;
    opts.smt = rng.next_bool(0.5);
    opts.disable_fraction = rng.next_bool(0.5) ? 0.1 : 0.0;
    shapes.push_back(random_topology(opts, "shape" + std::to_string(s)));
  }
  Cluster cluster;
  const std::size_t nodes = 3 + rng.next_below(10);
  for (std::size_t n = 0; n < nodes; ++n) {
    const NodeTopology& shape = shapes[rng.next_below(distinct)];
    // Every other repeat is re-parsed: equal content, unshared tree.
    NodeTopology topo = rng.next_bool(0.5)
                            ? shape
                            : parse_topology(serialize_topology(shape));
    if (rng.next_bool(0.1)) {
      topo.set_object_disabled(ResourceType::kNode, 0, true);
    } else if (rng.next_bool(0.15)) {
      topo.set_object_disabled(topo.leaf_type(),
                               rng.next_below(topo.pu_count()), true);
    }
    cluster.add_node(std::move(topo), rng.next_bool(0.3) ? 2 : 0);
  }
  Allocation alloc = allocate_all(cluster);
  if (alloc.total_online_pus() == 0) {
    alloc.mutable_node(0).topo.clear_restrictions();
  }
  return alloc;
}

// The allocation with each node's content made distinct by the OS index of
// the root's first child, which no mapping reads: a maximal tree over it
// prunes every node on its own.
Allocation unshared(const Allocation& alloc) {
  Allocation out;
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    const AllocatedNode& node = alloc.node(n);
    std::string text = serialize_topology(node.topo);
    const std::size_t os = text.find('@', text.find('@') + 1) + 1;
    text.replace(os, text.find_first_of(" !)", os) - os,
                 std::to_string(1000 + n));
    out.add(AllocatedNode{node.cluster_index,
                          parse_topology(text, node.topo.name()), node.slots});
  }
  return out;
}

// A random layout over the full alphabet.
ProcessLayout random_layout(SplitMix64& rng) {
  std::vector<std::string> letters = {"n",  "b",  "s",  "N", "L3",
                                      "L2", "L1", "c", "h"};
  std::string text;
  while (!letters.empty()) {
    const std::size_t at = rng.next_below(letters.size());
    text += letters[at];
    letters.erase(letters.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return ProcessLayout::parse(text);
}

void expect_same_vertex(const PrunedObject& shared, const PrunedObject& fresh,
                        const std::string& context) {
  ASSERT_EQ(shared.type(), fresh.type()) << context;
  ASSERT_TRUE(shared.available_pus() == fresh.available_pus()) << context;
  ASSERT_EQ(shared.source() == nullptr, fresh.source() == nullptr) << context;
  ASSERT_EQ(shared.num_children(), fresh.num_children()) << context;
  for (std::size_t i = 0; i < shared.num_children(); ++i) {
    expect_same_vertex(shared.child(i), fresh.child(i),
                       context + "/" + std::to_string(i));
  }
}

std::size_t distinct_contents(const Allocation& alloc) {
  std::set<std::string> texts;
  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    texts.insert(serialize_topology(alloc.node(n).topo));
  }
  return texts.size();
}

TEST(SharedPrunedTrees, EveryNodeMatchesAFreshPrunedTree) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SplitMix64 rng(seed);
    const Allocation alloc = repeated_allocation(rng);
    for (int l = 0; l < 4; ++l) {
      const ProcessLayout layout = random_layout(rng);
      const MaximalTree mtree(alloc, layout);
      EXPECT_EQ(mtree.num_distinct(), distinct_contents(alloc))
          << "seed=" << seed;
      for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
        const PrunedTree fresh(alloc.node(n).topo, mtree.node_levels());
        const std::string context = "seed=" + std::to_string(seed) + " " +
                                    layout.to_string() + " node " +
                                    std::to_string(n);
        EXPECT_EQ(mtree.pruned(n).level_widths(), fresh.level_widths())
            << context;
        expect_same_vertex(mtree.pruned(n).root(), fresh.root(), context);
      }
    }
  }
}

TEST(SharedPrunedTrees, OnePrunedTreePerDistinctContent) {
  const Allocation homogeneous = test::figure2_allocation(64);
  EXPECT_EQ(MaximalTree(homogeneous, ProcessLayout::parse("scbnh"))
                .num_distinct(),
            1u);
  Allocation failed = homogeneous;
  failed.mutable_node(9).topo.set_object_disabled(ResourceType::kNode, 0,
                                                  true);
  failed.mutable_node(40).topo.set_object_disabled(ResourceType::kHwThread,
                                                   3, true);
  failed.mutable_node(41).topo.set_object_disabled(ResourceType::kHwThread,
                                                   3, true);
  const MaximalTree mtree(failed, ProcessLayout::parse("scbnh"));
  EXPECT_EQ(mtree.num_distinct(), 3u);
  EXPECT_EQ(&mtree.pruned(40), &mtree.pruned(41));
  EXPECT_EQ(&mtree.pruned(0), &mtree.pruned(63));
  EXPECT_NE(&mtree.pruned(0), &mtree.pruned(9));
  EXPECT_FALSE(mtree.pruned(9).root().available());
}

// lama_map's outcome as comparable text: the mapping table, or the error.
std::string outcome(const std::function<MappingResult()>& run) {
  try {
    return test::format_mapping_table(run());
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(SharedPrunedTrees, ReferenceCompiledAndUnsharedWalksAgree) {
  PlanExecutor exec;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    SplitMix64 rng(seed);
    const Allocation alloc = repeated_allocation(rng);
    const Allocation distinct = unshared(alloc);
    const ProcessLayout layout = random_layout(rng);
    const MaximalTree mtree(alloc, layout);
    const MaximalTree distinct_tree(distinct, layout);
    ASSERT_EQ(distinct_tree.num_distinct(), alloc.num_nodes());
    const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});

    MapOptions opts;
    opts.pus_per_proc = 1 + rng.next_below(4);
    const std::size_t capacity = alloc.total_online_pus();
    // Up to twice the capacity: wraparound sweeps and shared PUs.
    opts.np = 1 + rng.next_below(2 * capacity / opts.pus_per_proc + 1);
    opts.allow_oversubscribe = !rng.next_bool(0.2);
    if (rng.next_bool(0.3)) opts.set_cap(ResourceType::kNode, 1 + rng.next_below(4));
    if (rng.next_bool(0.3)) opts.set_cap(ResourceType::kSocket, 1 + rng.next_below(3));

    const std::string context =
        "seed=" + std::to_string(seed) + " " + layout.to_string() +
        " np=" + std::to_string(opts.np) +
        " pus=" + std::to_string(opts.pus_per_proc);
    const std::string reference =
        outcome([&] { return lama_map(alloc, layout, opts, mtree); });
    EXPECT_EQ(outcome([&] {
                return lama_map(distinct, layout, opts, distinct_tree);
              }),
              reference)
        << context << " (unshared)";
    EXPECT_EQ(outcome([&] {
                MappingResult out;
                lama_map_compiled(alloc, opts, plan, exec, out);
                return out;
              }),
              reference)
        << context << " (compiled)";
  }
}

}  // namespace
}  // namespace lama
