#include "svc/plan_cache.hpp"

#include <utility>

#include "lama/iteration.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace lama::svc {

CachedPlan::CachedPlan(std::shared_ptr<const CachedTree> tree,
                       const TreeKey& key)
    : tree_(std::move(tree)),
      plan_(compile_map_plan(tree_->tree(), tree_->layout(),
                             IterationPolicy{})),
      expected_seal_(CachedTree::seal_for(key)) {}

PlanCache::PlanCache(std::size_t num_shards, std::size_t capacity_per_shard,
                     std::uint64_t max_space, Counters& counters,
                     support::NumaAllocator* arena,
                     const support::NumaTopology* numa)
    : max_space_(max_space),
      capacity_per_shard_(capacity_per_shard),
      counters_(counters) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  support::NumaAllocator& a =
      arena != nullptr ? *arena : support::plain_arena();
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(support::numa_new<Shard>(a, support::shard_node(numa, i),
                                               capacity_per_shard));
  }
}

PlanCache::Shard& PlanCache::shard_for(const TreeKey& key) {
  return *shards_[TreeKeyHash{}(key) % shards_.size()];
}

PlanCache::PlanPtr PlanCache::compile(
    const TreeKey& key, const std::shared_ptr<const CachedTree>& tree) {
  // Refusal is not a miss: a plan that will never be compiled should not
  // depress the hit ratio — the request simply keeps the reference walk.
  if (max_space_ != 0 &&
      map_plan_space(tree->tree(), tree->layout(), IterationPolicy{}) >
          max_space_) {
    return nullptr;
  }
  counters_.plan_misses.fetch_add(1, std::memory_order_relaxed);
  const obs::SpanScope compile_span(obs::Stage::kPlanCompile);
  return std::make_shared<const CachedPlan>(tree, key);
}

PlanCache::Lookup PlanCache::get_or_compile(
    const TreeKey& key, const std::shared_ptr<const CachedTree>& tree,
    bool verify) {
  if (capacity_per_shard_ == 0) return {nullptr, /*hit=*/false};
  Shard& shard = shard_for(key);
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (PlanPtr* entry = shard.lru.get(key)) {
      PlanPtr plan = *entry;
      if (!verify || plan->verify()) {
        lock.unlock();
        counters_.plan_hits.fetch_add(1, std::memory_order_relaxed);
        return {std::move(plan), /*hit=*/true};
      }
      // The embedded tree lost its seal: never execute a plan whose source
      // tree cannot be trusted. Drop it and recompile below from the
      // caller's tree, which passed its own verification.
      shard.lru.erase(key);
    }
  }

  // Compile outside the shard lock — it costs a full walk, and duplicate
  // concurrent misses already coalesced on the tree build. Last writer wins.
  PlanPtr built = compile(key, tree);
  if (built == nullptr) return {nullptr, /*hit=*/false};
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.put(key, built);
  }
  return {std::move(built), /*hit=*/false};
}

bool PlanCache::erase(const TreeKey& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.erase(key);
}

std::size_t PlanCache::invalidate_alloc(std::uint64_t alloc_fp) {
  std::size_t removed = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    removed += shard->lru.erase_if(
        [alloc_fp](const TreeKey& key, const PlanPtr&) {
          return key.alloc_fp == alloc_fp;
        });
  }
  return removed;
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace lama::svc
