// The sharded, thread-safe LRU cache of maximal/pruned trees. The expensive
// per-query work of the LAMA — pruning every node's topology against the
// layout and assembling the maximal iteration space (§IV-B) — depends only
// on (allocation, layout), not on np or mapping options, so repeated queries
// against the same cluster can skip straight to the iteration walk. Keys
// combine the canonical allocation fingerprint with the canonical layout
// string; values hold their own copy of the allocation (the pruned trees
// hold pointers into its topology objects) plus the tree built over it,
// shared immutably via shared_ptr so evicted trees stay alive for requests
// still mapping from them. That copy shares every node's topology tree with
// the interned allocation it was made from (topo/node_topology.hpp), so it
// costs a reference count per node, not a deep copy.
//
// Concurrency: keys hash-partition across independent shards, each a mutex +
// LruMap + in-flight table. A miss publishes a shared_future before building
// so duplicate concurrent misses coalesce onto the one build instead of
// duplicating it; build failures propagate to every coalesced waiter and are
// not cached.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/layout.hpp"
#include "lama/maximal_tree.hpp"
#include "support/lru.hpp"
#include "support/numa.hpp"
#include "svc/counters.hpp"

namespace lama::svc {

struct TreeKey {
  std::uint64_t alloc_fp = 0;  // allocation_fingerprint()
  std::string layout;          // canonical ProcessLayout::to_string() form

  bool operator==(const TreeKey&) const = default;
};

struct TreeKeyHash {
  std::size_t operator()(const TreeKey& key) const;
};

// An immutable (allocation, layout, maximal tree) triple. The allocation is
// a copy made at build time; it shares its nodes' topology trees, which are
// immutable while shared. The tree's pruned objects point into those
// topologies, so holding them here is what makes the cached value safe to
// share after the requesting client's allocation is gone, and a later
// OFFLINE/ONLINE of the client's allocation clones the node it writes
// instead of changing what this copy sees.
//
// Every tree carries an integrity checksum sealed at build time — the hash
// of the fingerprint/layout pair it was built for. verify() re-derives the
// expectation from the lookup key, so a tree that somehow ends up under the
// wrong key (or whose seal was corrupted) is detected on the hit path and
// the service degrades to a fresh uncached build instead of mapping onto
// the wrong hardware.
class CachedTree {
 public:
  CachedTree(const Allocation& alloc, ProcessLayout layout);

  CachedTree(const CachedTree&) = delete;
  CachedTree& operator=(const CachedTree&) = delete;

  [[nodiscard]] const Allocation& alloc() const { return alloc_; }
  [[nodiscard]] const ProcessLayout& layout() const { return layout_; }
  [[nodiscard]] const MaximalTree& tree() const { return tree_; }

  // True when the sealed checksum matches what `key` demands.
  [[nodiscard]] bool verify(const TreeKey& key) const;

  // The current seal value. The plan cache memoizes seal_for(key) at
  // compile time and compares against this on every hit, so hit-path
  // integrity checks stay allocation-free (seal_for concatenates strings).
  [[nodiscard]] std::uint64_t seal() const {
    return seal_.load(std::memory_order_relaxed);
  }

  // Fault injection: scrambles the seal so the next verify() fails. Atomic,
  // so injectors may fire while requests are mapping from this tree.
  void corrupt_for_testing() const;

  // The checksum a tree built for `key` must carry.
  static std::uint64_t seal_for(const TreeKey& key);

 private:
  Allocation alloc_;
  ProcessLayout layout_;
  MaximalTree tree_;  // built over alloc_; must be declared after it
  mutable std::atomic<std::uint64_t> seal_;
};

class ShardedTreeCache {
 public:
  // `capacity_per_shard` of 0 disables caching: every lookup builds.
  // `arena`/`numa` (both optional, must outlive the cache when set) place
  // each shard's control block on a NUMA node round-robin, so on a
  // multi-socket host the mutex + LRU a shard thread hammers live on its
  // own memory; null degrades to plain operator new.
  ShardedTreeCache(std::size_t num_shards, std::size_t capacity_per_shard,
                   Counters& counters,
                   support::NumaAllocator* arena = nullptr,
                   const support::NumaTopology* numa = nullptr);

  struct Lookup {
    std::shared_ptr<const CachedTree> tree;
    bool hit = false;        // served from the LRU
    bool coalesced = false;  // waited on another request's build
  };

  // Returns the tree for `key`, building it from (alloc, layout) on a miss.
  // Exactly one of hit/coalesced/neither (a miss that built) holds, and the
  // matching counter is incremented. Build exceptions propagate to the
  // caller and to every coalesced waiter.
  Lookup get_or_build(const TreeKey& key, const Allocation& alloc,
                      const ProcessLayout& layout);

  // Drops one entry (e.g. a tree that failed integrity re-validation).
  // Returns true when it was present.
  bool erase(const TreeKey& key);

  // Drops every cached tree built over the allocation with this fingerprint
  // — the epoch-bump invalidation hook of OFFLINE/ONLINE. Returns the number
  // of entries removed. In-flight builds are left to finish; their results
  // enter the cache under the (now stale) fingerprint and simply never match
  // a future request's key.
  std::size_t invalidate_alloc(std::uint64_t alloc_fp);

  // Fault injection: corrupts the integrity seal of every cached tree under
  // `alloc_fp` (all trees when 0). Returns how many were corrupted.
  std::size_t corrupt_for_testing(std::uint64_t alloc_fp = 0);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  // Cached trees across all shards (racy under concurrency; for tests).
  [[nodiscard]] std::size_t size() const;

 private:
  using TreePtr = std::shared_ptr<const CachedTree>;

  struct Shard {
    explicit Shard(std::size_t capacity) : lru(capacity) {}
    std::mutex mu;
    LruMap<TreeKey, TreePtr, TreeKeyHash> lru;
    std::unordered_map<TreeKey, std::shared_future<TreePtr>, TreeKeyHash>
        inflight;
  };

  Shard& shard_for(const TreeKey& key);

  std::vector<support::NumaUniquePtr<Shard>> shards_;
  Counters& counters_;
};

}  // namespace lama::svc
