// Concurrency stress for the mapping service: many threads hammer one
// service with a mix of layouts sampled from the 9! permutation space
// against several heterogeneous allocations, with a cache sized small
// enough to churn (evict + rebuild) throughout the run. Every response is
// compared placement-by-placement against a single-threaded ground truth
// computed up front — which is simultaneously the proof that the sharded
// cache never returns a tree under the wrong key (a wrong-keyed tree maps
// onto the wrong hardware and cannot reproduce the expected placements).
// Run under LAMA_SANITIZE=thread to certify the cache and coalescing paths
// race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "lama/mapper.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

// Layouts sampled from the full 9-letter permutation space (9! = 362,880)
// with a deterministic seed, plus the two canned extremes.
std::vector<std::string> sample_layouts(std::size_t count,
                                        std::uint64_t seed) {
  const std::vector<ResourceType> alphabet =
      ProcessLayout::full_pack().order();
  std::vector<std::string> layouts = {
      ProcessLayout::full_pack().to_string(),
      ProcessLayout::full_scatter().to_string(),
  };
  SplitMix64 rng(seed);
  while (layouts.size() < count) {
    std::vector<ResourceType> order = alphabet;
    // Fisher-Yates with the deterministic generator.
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    layouts.push_back(ProcessLayout(order).to_string());
  }
  return layouts;
}

std::vector<Allocation> heterogeneous_allocations() {
  std::vector<Allocation> allocs;
  // Homogeneous dual-socket cluster.
  allocs.push_back(
      allocate_all(Cluster::homogeneous(4, "socket:2 core:4 pu:2")));
  // Mixed generations: deep NUMA node + flat old node + single-socket node.
  allocs.push_back(allocate_all(parse_cluster_file(
      "new0 socket:2 numa:2 l3:1 l2:2 core:2 pu:2\n"
      "new1 socket:2 numa:2 l3:1 l2:2 core:2 pu:2\n"
      "old0 socket:2 core:4 slots=4\n"
      "thin0 socket:1 core:2 pu:2 slots=2\n")));
  // Restricted allocation: one node with a socket off-lined.
  Cluster restricted = Cluster::homogeneous(3, "socket:2 core:2 pu:2");
  restricted.mutable_node(1).topo.set_object_disabled(ResourceType::kSocket,
                                                      0, true);
  allocs.push_back(allocate_all(restricted));
  return allocs;
}

struct WorkItem {
  std::size_t alloc_index;
  std::string spec;
  MapOptions opts;
};

TEST(ServiceStress, ConcurrentMixedTrafficMatchesSingleThreaded) {
  const std::vector<Allocation> allocs = heterogeneous_allocations();
  const std::vector<std::string> layouts = sample_layouts(12, 0xA11C0FFEE);

  // Cache far smaller than the working set (3 allocs x 12 layouts = 36
  // trees) so the run continuously evicts and rebuilds.
  MappingService service(
      {.workers = 0, .cache_shards = 4, .shard_capacity = 2});
  std::vector<InternedAlloc> interned;
  interned.reserve(allocs.size());
  for (const Allocation& a : allocs) interned.push_back(service.intern(a));

  // The work list and its single-threaded ground truth.
  std::vector<WorkItem> work;
  for (std::size_t ai = 0; ai < allocs.size(); ++ai) {
    for (const std::string& layout : layouts) {
      work.push_back({ai, "lama:" + layout,
                      MapOptions{.np = 1 + (work.size() % 23)}});
    }
  }
  std::vector<MappingResult> expected;
  expected.reserve(work.size());
  for (const WorkItem& item : work) {
    expected.push_back(lama_map(allocs[item.alloc_index],
                                item.spec.substr(5), item.opts));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(0xBEEF + static_cast<std::uint64_t>(t));
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the work list in its own order.
        std::vector<std::size_t> order(work.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.next_below(i + 1)]);
        }
        for (const std::size_t w : order) {
          const WorkItem& item = work[w];
          const MapResponse response = service.map(
              {interned[item.alloc_index], item.spec, item.opts});
          if (!response.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          const MappingResult& want = expected[w];
          if (response.mapping.num_procs() != want.num_procs()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (std::size_t i = 0; i < want.num_procs(); ++i) {
            if (response.mapping.node(i) != want.node(i) ||
                !response.mapping.pus(i).equals(want.pus(i)) ||
                !std::ranges::equal(response.mapping.coord(i),
                                    want.coord(i))) {
              mismatches.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);

  const Counters& c = service.counters();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kRounds * work.size();
  EXPECT_EQ(c.requests.load(), total);
  EXPECT_EQ(c.completed.load(), total);
  EXPECT_EQ(c.errors.load(), 0u);
  // Every cached-path request resolved exactly one way.
  EXPECT_EQ(c.cache_hits.load() + c.cache_misses.load() + c.coalesced.load(),
            total);
  // The undersized cache must actually have churned.
  EXPECT_GT(c.evictions.load(), 0u);
  EXPECT_GT(c.cache_hits.load(), 0u);
}

TEST(ServiceStress, ConcurrentBatchesOnWorkerPool) {
  // Same correctness property through map_batch + the worker pool, with
  // duplicate keys inside each batch to exercise coalescing.
  const Allocation alloc = allocate_all(parse_cluster_file(
      "big0 socket:2 numa:2 l3:1 l2:2 core:2 pu:2\n"
      "big1 socket:2 numa:2 l3:1 l2:2 core:2 pu:2\n"
      "old0 socket:2 core:4 slots=4\n"));
  const std::vector<std::string> layouts = sample_layouts(6, 42);

  MappingService service(
      {.workers = 8, .cache_shards = 2, .shard_capacity = 2});
  const InternedAlloc interned = service.intern(alloc);

  std::vector<MapRequest> batch;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const std::string& layout : layouts) {
      batch.push_back({interned, "lama:" + layout,
                       MapOptions{.np = 5 + static_cast<std::size_t>(repeat)}});
    }
  }
  std::vector<MappingResult> expected;
  expected.reserve(batch.size());
  for (const MapRequest& request : batch) {
    expected.push_back(
        lama_map(alloc, request.spec.substr(5), request.opts));
  }

  for (int round = 0; round < 4; ++round) {
    const std::vector<MapResponse> responses = service.map_batch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].error;
      ASSERT_EQ(responses[i].mapping.num_procs(), expected[i].num_procs());
      for (std::size_t r = 0; r < expected[i].num_procs(); ++r) {
        EXPECT_EQ(responses[i].mapping.pus(r).to_string(),
                  expected[i].pus(r).to_string());
        EXPECT_EQ(responses[i].mapping.node(r),
                  expected[i].node(r));
      }
    }
  }
  const Counters& c = service.counters();
  EXPECT_EQ(c.cache_hits.load() + c.cache_misses.load() + c.coalesced.load(),
            c.requests.load());
}

TEST(ServiceStress, CountersStayCoherentUnderFaultTraffic) {
  // Mixed good/bad traffic racing a chaos thread that corrupts cached trees
  // and invalidates the allocation's fingerprint. Pins the two accounting
  // invariants under concurrency and faults: exactly one of
  // hits/misses/coalesced per cached-path request (they sum to `cached`),
  // and exactly one error per failed request (so `errors` equals the number
  // of requests built to fail — nothing double- or under-counted, whatever
  // path the failure took). Run under LAMA_SANITIZE=thread to certify the
  // integrity-check, erase, and invalidation paths race-free.
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(2, "socket:2 core:2 pu:2"));
  MappingService service(
      {.workers = 0, .cache_shards = 4, .shard_capacity = 2});
  const InternedAlloc interned = service.intern(alloc);
  const std::vector<std::string> layouts = sample_layouts(6, 0xFA117);

  constexpr int kThreads = 8;
  constexpr int kIters = 250;
  std::atomic<std::uint64_t> sent_good{0}, sent_unknown{0}, sent_oversub{0},
      sent_deadlined{0}, unexpected{0};

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    SplitMix64 rng(0xC4A05);
    while (!stop.load(std::memory_order_acquire)) {
      service.corrupt_cached_trees_for_testing();
      if (rng.next_bool(0.5)) service.invalidate(interned.fingerprint);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(0xFEED + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t pick = rng.next_below(100);
        MapRequest request{interned, "lama", {.np = 1 + rng.next_below(16)}};
        request.spec = "lama:" + layouts[rng.next_below(layouts.size())];
        bool expect_ok = true;
        if (pick < 10) {
          // Unknown component: fails on the uncached path.
          request.spec = "nosuch";
          sent_unknown.fetch_add(1);
          expect_ok = false;
        } else if (pick < 20) {
          // Capacity violation: fails after the tree walk starts.
          request.opts.np = alloc.total_online_pus() * 2 + 1;
          request.opts.allow_oversubscribe = false;
          sent_oversub.fetch_add(1);
          expect_ok = false;
        } else if (pick < 25) {
          // Expired deadline: cancelled before any mapping work.
          request.opts.deadline_ns = 1;
          sent_deadlined.fetch_add(1);
          expect_ok = false;
        } else {
          sent_good.fetch_add(1);
        }
        const MapResponse response = service.map(request);
        if (response.ok() != expect_ok) unexpected.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_EQ(unexpected.load(), 0u);
  const Counters& c = service.counters();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(c.requests.load(), total);
  EXPECT_EQ(c.completed.load(), total);
  // Exactly one error per request built to fail.
  EXPECT_EQ(c.errors.load(),
            sent_unknown.load() + sent_oversub.load() + sent_deadlined.load());
  EXPECT_EQ(c.deadlined.load(), sent_deadlined.load());
  EXPECT_EQ(c.uncached.load(), sent_unknown.load());
  // Cached-path requests: everything that reached the tree cache (good +
  // oversubscribed traffic; unknown specs bypass it, deadlined requests
  // cancel before it), each resolving exactly one way.
  EXPECT_EQ(c.cached.load(), sent_good.load() + sent_oversub.load());
  EXPECT_EQ(c.cache_hits.load() + c.cache_misses.load() + c.coalesced.load(),
            c.cached.load());
}

}  // namespace
}  // namespace lama::svc
