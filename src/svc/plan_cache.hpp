// The compiled-plan cache: MapPlans (lama/map_plan.hpp) cached beside the
// tree cache under the same (allocation fingerprint, canonical layout) keys,
// so repeated MAP/MAPBATCH queries skip not just the tree build but the
// whole coordinate-resolution walk and run the zero-allocation executor
// against precompiled slots.
//
// A cached plan co-owns the CachedTree it was compiled from: plans borrow
// the tree's PU bitmaps, so the shared_ptr keeps those alive even after the
// tree itself is evicted from (or replaced in) the tree cache. Because the
// tree a plan embeds and the tree a later request looks up are both built
// for the same key, the placements are identical either way — the embedded
// tree's allocation is what the mapping (and any binding step) must run
// against.
//
// Integrity and invalidation mirror the tree cache: the plan memoizes the
// seal its tree must carry, verified on every hit without allocating (the
// tree cache's seal_for() concatenates strings; the memoized compare does
// not), and invalidate_alloc() drops every plan under a fingerprint when an
// epoch bump retires the allocation — stale-epoch plans leave with their
// trees. Unlike the tree cache there is no in-flight coalescing: a compile
// costs about one mapping walk, and concurrent misses for the same key have
// already coalesced on the tree build; letting the rare duplicate compile
// run is cheaper than another promise table on the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lama/map_plan.hpp"
#include "support/lru.hpp"
#include "svc/counters.hpp"
#include "svc/tree_cache.hpp"

namespace lama::svc {

// An immutable (cached tree, compiled plan) pair. Always compiled under the
// default iteration policy — the cache serves default-policy requests only
// (MapPlan::default_policy is the executor-side guard).
class CachedPlan {
 public:
  CachedPlan(std::shared_ptr<const CachedTree> tree, const TreeKey& key);

  CachedPlan(const CachedPlan&) = delete;
  CachedPlan& operator=(const CachedPlan&) = delete;

  [[nodiscard]] const std::shared_ptr<const CachedTree>& tree() const {
    return tree_;
  }
  [[nodiscard]] const MapPlan& plan() const { return plan_; }

  // True when the embedded tree still carries the seal this plan's key
  // demands. Allocation-free: compares against the seal memoized at compile
  // time, so corruption of the shared tree is caught on the plan hit path
  // too.
  [[nodiscard]] bool verify() const {
    return tree_->seal() == expected_seal_;
  }

 private:
  std::shared_ptr<const CachedTree> tree_;  // must outlive plan_ (borrowed bitmaps)
  MapPlan plan_;
  std::uint64_t expected_seal_ = 0;
};

class PlanCache {
 public:
  // `capacity_per_shard` of 0 disables caching: every lookup misses and
  // compiles nothing. `max_space` > 0 refuses to compile plans whose
  // iteration space exceeds it (the request falls back to the reference
  // walk); 0 means unbounded.
  // `arena`/`numa` (optional) NUMA-place the shard control blocks exactly
  // like ShardedTreeCache; null degrades to plain operator new.
  PlanCache(std::size_t num_shards, std::size_t capacity_per_shard,
            std::uint64_t max_space, Counters& counters,
            support::NumaAllocator* arena = nullptr,
            const support::NumaTopology* numa = nullptr);

  struct Lookup {
    // Null when the cache is disabled, the plan's iteration space exceeds
    // max_space (neither counts as a miss), or verification of a cached
    // entry failed and recompilation was not possible.
    std::shared_ptr<const CachedPlan> plan;
    bool hit = false;  // served from the LRU (and verified, when asked)
  };

  // Returns the plan for `key`, compiling it from `tree` on a miss (counted
  // in plan_misses, timed by a plan_compile span).
  // A hit is verified against the memoized seal when `verify` is set;
  // failures drop the entry and recompile from `tree` — which the caller
  // has already integrity-checked. Compile exceptions propagate.
  Lookup get_or_compile(const TreeKey& key,
                        const std::shared_ptr<const CachedTree>& tree,
                        bool verify);

  // Drops one entry (e.g. after the paired tree failed its integrity
  // check). Returns true when it was present.
  bool erase(const TreeKey& key);

  // Drops every plan compiled over this fingerprint — invoked by the same
  // epoch-bump hook that invalidates the tree cache, so stale-epoch plans
  // never outlive their trees. Returns the number removed. Does NOT bump
  // the invalidations counter: the tree cache already accounts the epoch
  // bump, and the resilience invariants count invalidation events once.
  std::size_t invalidate_alloc(std::uint64_t alloc_fp);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  // Cached plans across all shards (racy under concurrency; for tests).
  [[nodiscard]] std::size_t size() const;

 private:
  using PlanPtr = std::shared_ptr<const CachedPlan>;

  struct Shard {
    explicit Shard(std::size_t capacity) : lru(capacity) {}
    std::mutex mu;
    LruMap<TreeKey, PlanPtr, TreeKeyHash> lru;
  };

  Shard& shard_for(const TreeKey& key);
  PlanPtr compile(const TreeKey& key,
                  const std::shared_ptr<const CachedTree>& tree);

  std::vector<support::NumaUniquePtr<Shard>> shards_;
  std::uint64_t max_space_;
  std::size_t capacity_per_shard_;
  Counters& counters_;
};

}  // namespace lama::svc
