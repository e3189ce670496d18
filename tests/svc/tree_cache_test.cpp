#include "svc/tree_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cluster/alloc_serialize.hpp"
#include "support/error.hpp"
#include "svc/service.hpp"
#include "topo/presets.hpp"
#include "topo/serialize.hpp"

namespace lama::svc {
namespace {

Allocation make_alloc(std::size_t nodes, const std::string& desc) {
  return allocate_all(Cluster::homogeneous(nodes, desc));
}

TreeKey key_for(const Allocation& alloc, const std::string& layout) {
  return TreeKey{allocation_fingerprint(alloc),
                 ProcessLayout::parse(layout).to_string()};
}

TEST(TreeCache, MissBuildsThenHits) {
  Counters counters;
  ShardedTreeCache cache(4, 8, counters);
  const Allocation alloc = make_alloc(2, "socket:2 core:4 pu:2");
  const ProcessLayout layout = ProcessLayout::parse("scbnh");

  const auto first = cache.get_or_build(key_for(alloc, "scbnh"), alloc, layout);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.coalesced);
  const auto second =
      cache.get_or_build(key_for(alloc, "scbnh"), alloc, layout);
  EXPECT_TRUE(second.hit);
  // Hits return the very same tree object.
  EXPECT_EQ(first.tree.get(), second.tree.get());
  EXPECT_EQ(counters.cache_hits.load(), 1u);
  EXPECT_EQ(counters.cache_misses.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TreeCache, DistinctLayoutsAndAllocsGetDistinctTrees) {
  Counters counters;
  ShardedTreeCache cache(4, 8, counters);
  const Allocation a = make_alloc(2, "socket:2 core:4 pu:2");
  const Allocation b = make_alloc(3, "socket:2 core:4 pu:2");

  const auto a_scbnh = cache.get_or_build(
      key_for(a, "scbnh"), a, ProcessLayout::parse("scbnh"));
  const auto a_hcsbn = cache.get_or_build(
      key_for(a, "hcsbn"), a, ProcessLayout::parse("hcsbn"));
  const auto b_scbnh = cache.get_or_build(
      key_for(b, "scbnh"), b, ProcessLayout::parse("scbnh"));
  EXPECT_NE(a_scbnh.tree.get(), a_hcsbn.tree.get());
  EXPECT_NE(a_scbnh.tree.get(), b_scbnh.tree.get());
  EXPECT_EQ(cache.size(), 3u);
  // The cached tree describes the allocation it was built from.
  EXPECT_EQ(a_scbnh.tree->tree().num_nodes(), 2u);
  EXPECT_EQ(b_scbnh.tree->tree().num_nodes(), 3u);
}

TEST(TreeCache, CachedTreeOwnsItsAllocation) {
  Counters counters;
  ShardedTreeCache cache(1, 4, counters);
  std::shared_ptr<const CachedTree> tree;
  {
    const Allocation temporary = make_alloc(2, "socket:2 core:2 pu:2");
    tree = cache
               .get_or_build(key_for(temporary, "scn"), temporary,
                             ProcessLayout::parse("scn"))
               .tree;
  }
  // The client allocation is gone; the cached copy must still be walkable.
  EXPECT_EQ(tree->alloc().num_nodes(), 2u);
  EXPECT_GT(tree->tree().iteration_space(), 0u);
}

TEST(TreeCache, EvictionAtCapacityCountsAndRebuilds) {
  Counters counters;
  ShardedTreeCache cache(1, 2, counters);  // one shard, two entries
  const Allocation alloc = make_alloc(2, "socket:2 core:4 pu:2");
  for (const char* layout : {"scbnh", "hcsbn", "nbsch"}) {
    cache.get_or_build(key_for(alloc, layout), alloc,
                       ProcessLayout::parse(layout));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counters.evictions.load(), 1u);
  // The evicted key ("scbnh", least recently used) misses again.
  const auto again = cache.get_or_build(key_for(alloc, "scbnh"), alloc,
                                        ProcessLayout::parse("scbnh"));
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(counters.cache_misses.load(), 4u);
}

TEST(TreeCache, ZeroCapacityAlwaysBuilds) {
  Counters counters;
  ShardedTreeCache cache(2, 0, counters);
  const Allocation alloc = make_alloc(1, "core:4 pu:2");
  for (int i = 0; i < 3; ++i) {
    const auto lookup = cache.get_or_build(key_for(alloc, "cn"), alloc,
                                           ProcessLayout::parse("cn"));
    EXPECT_FALSE(lookup.hit);
  }
  EXPECT_EQ(counters.cache_hits.load(), 0u);
  EXPECT_EQ(counters.cache_misses.load(), 3u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TreeCache, ConcurrentSameKeyCoalescesOntoOneBuild) {
  Counters counters;
  ShardedTreeCache cache(4, 8, counters);
  // A build slow enough for the other threads to arrive while in flight.
  const Allocation alloc =
      make_alloc(48, "socket:2 numa:2 l3:1 l2:2 l1:1 core:4 pu:2");
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const TreeKey key = key_for(alloc, "scbnh");

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<const CachedTree*> seen(kThreads, nullptr);
  std::atomic<int> ready{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // line everyone up at the gate
      seen[t] = cache.get_or_build(key, alloc, layout).tree.get();
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  // Every request resolved exactly one way, and at most... exactly one build
  // can be in flight per key at a time, but a fast build may finish before a
  // slow starter even probes, giving extra misses-that-hit. What must hold:
  // the three outcomes partition the requests.
  EXPECT_EQ(counters.cache_hits.load() + counters.cache_misses.load() +
                counters.coalesced.load(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(counters.cache_misses.load(), 1u);
}

TEST(TreeCache, BuildFailurePropagatesAndIsNotCached) {
  Counters counters;
  ShardedTreeCache cache(2, 4, counters);
  Allocation empty;  // fails Allocation::validate at build time
  const ProcessLayout layout = ProcessLayout::parse("scn");
  const TreeKey key{12345, "scn"};
  EXPECT_THROW(cache.get_or_build(key, empty, layout), MappingError);
  EXPECT_EQ(cache.size(), 0u);
  // The key is retryable: a good allocation under the same key builds.
  const Allocation good = make_alloc(1, "socket:1 core:2 pu:2");
  const auto lookup = cache.get_or_build(key, good, layout);
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(cache.size(), 1u);
}

// The protocol session keeps each allocation as NODE lines parse it (one
// tree per node), interns it before a MAP, and the MAP caches a tree over
// the interned copy. Both copies share every node's topology tree with the
// session's allocation, the maximal tree prunes the equal nodes once, and
// an OFFLINE of one node clones that node alone.
TEST(TreeCache, InternedAndCachedCopiesShareTheSessionsNodeTrees) {
  const std::string line =
      "16 " + serialize_topology(presets::figure2_node()) + "\n";
  Allocation session;
  for (std::size_t n = 0; n < 8; ++n) {
    AllocatedNode node = parse_allocation(line).node(0);
    node.cluster_index = n;
    session.add(std::move(node));
  }
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(session);
  Counters counters;
  ShardedTreeCache cache(2, 4, counters);
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const auto lookup = cache.get_or_build(
      TreeKey{interned.fingerprint, layout.to_string()}, *interned.alloc,
      layout);
  const Allocation& cached = lookup.tree->alloc();
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_TRUE(interned.alloc->node(n).topo.shares_tree_with(
        session.node(n).topo)) << n;
    EXPECT_TRUE(cached.node(n).topo.shares_tree_with(session.node(n).topo))
        << n;
  }
  EXPECT_EQ(lookup.tree->tree().num_distinct(), 1u);

  const std::string before = serialize_allocation(cached);
  session.mutable_node(3).topo.set_object_disabled(ResourceType::kNode, 0,
                                                   true);
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_EQ(cached.node(n).topo.shares_tree_with(session.node(n).topo),
              n != 3) << n;
    EXPECT_EQ(interned.alloc->node(n).topo.shares_tree_with(
                  session.node(n).topo),
              n != 3) << n;
  }
  EXPECT_EQ(serialize_allocation(cached), before);
  EXPECT_EQ(cached.total_online_pus(), 8u * 16u);
  EXPECT_EQ(session.total_online_pus(), 7u * 16u);

  const InternedAlloc next = service.intern(session);
  EXPECT_NE(next.fingerprint, interned.fingerprint);
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_TRUE(next.alloc->node(n).topo.shares_tree_with(
        session.node(n).topo)) << n;
  }
}

}  // namespace
}  // namespace lama::svc
