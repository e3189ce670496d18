#include "svc/tree_cache.hpp"

#include "cluster/alloc_serialize.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace lama::svc {

std::size_t TreeKeyHash::operator()(const TreeKey& key) const {
  return static_cast<std::size_t>(
      hash_combine(key.alloc_fp, fnv1a64(key.layout)));
}

CachedTree::CachedTree(const Allocation& alloc, ProcessLayout layout)
    : alloc_((alloc.validate(), alloc)),  // never cache an unusable tree
      layout_(std::move(layout)),
      tree_(alloc_, layout_),
      seal_(seal_for(
          TreeKey{allocation_fingerprint(alloc_), layout_.to_string()})) {}

std::uint64_t CachedTree::seal_for(const TreeKey& key) {
  return hash_combine(key.alloc_fp, fnv1a64("tree-seal:" + key.layout));
}

bool CachedTree::verify(const TreeKey& key) const {
  return seal_.load(std::memory_order_relaxed) == seal_for(key);
}

void CachedTree::corrupt_for_testing() const {
  seal_.fetch_xor(0xDEADBEEFCAFEF00DULL, std::memory_order_relaxed);
}

ShardedTreeCache::ShardedTreeCache(std::size_t num_shards,
                                   std::size_t capacity_per_shard,
                                   Counters& counters,
                                   support::NumaAllocator* arena,
                                   const support::NumaTopology* numa)
    : counters_(counters) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  support::NumaAllocator& a =
      arena != nullptr ? *arena : support::plain_arena();
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(support::numa_new<Shard>(a, support::shard_node(numa, i),
                                               capacity_per_shard));
  }
}

ShardedTreeCache::Shard& ShardedTreeCache::shard_for(const TreeKey& key) {
  return *shards_[TreeKeyHash{}(key) % shards_.size()];
}

ShardedTreeCache::Lookup ShardedTreeCache::get_or_build(
    const TreeKey& key, const Allocation& alloc, const ProcessLayout& layout) {
  // The cache_lookup span is the shard probe alone (detail = hit); the
  // tree_build or coalesce_wait that a miss continues with are its siblings.
  const std::uint64_t lookup_span = obs::span_begin();
  Shard& shard = shard_for(key);
  std::unique_lock<std::mutex> lock(shard.mu);

  if (TreePtr* cached = shard.lru.get(key)) {
    TreePtr tree = *cached;
    lock.unlock();
    counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    obs::span_end(obs::Stage::kLookup, 1, lookup_span);
    return {std::move(tree), /*hit=*/true, /*coalesced=*/false};
  }

  if (const auto it = shard.inflight.find(key); it != shard.inflight.end()) {
    std::shared_future<TreePtr> pending = it->second;
    lock.unlock();
    counters_.coalesced.fetch_add(1, std::memory_order_relaxed);
    obs::span_end(obs::Stage::kLookup, 0, lookup_span);
    const obs::SpanScope wait_span(obs::Stage::kCoalesceWait);
    return {pending.get(), /*hit=*/false, /*coalesced=*/true};  // may rethrow
  }

  // Miss: publish the build before starting it so duplicates coalesce.
  std::promise<TreePtr> promise;
  shard.inflight.emplace(key, promise.get_future().share());
  lock.unlock();
  counters_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  obs::span_end(obs::Stage::kLookup, 0, lookup_span);

  TreePtr built;
  try {
    built = std::make_shared<const CachedTree>(alloc, layout);
  } catch (...) {
    lock.lock();
    shard.inflight.erase(key);
    lock.unlock();
    promise.set_exception(std::current_exception());
    throw;
  }

  lock.lock();
  const std::size_t evicted_before = shard.lru.evictions();
  shard.lru.put(key, built);
  const std::size_t newly_evicted = shard.lru.evictions() - evicted_before;
  shard.inflight.erase(key);
  lock.unlock();
  if (newly_evicted > 0) {
    counters_.evictions.fetch_add(newly_evicted, std::memory_order_relaxed);
  }
  promise.set_value(built);
  return {std::move(built), /*hit=*/false, /*coalesced=*/false};
}

bool ShardedTreeCache::erase(const TreeKey& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.erase(key);
}

std::size_t ShardedTreeCache::invalidate_alloc(std::uint64_t alloc_fp) {
  std::size_t removed = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    removed += shard->lru.erase_if(
        [alloc_fp](const TreeKey& key, const TreePtr&) {
          return key.alloc_fp == alloc_fp;
        });
  }
  if (removed > 0) {
    counters_.invalidations.fetch_add(removed, std::memory_order_relaxed);
  }
  return removed;
}

std::size_t ShardedTreeCache::corrupt_for_testing(std::uint64_t alloc_fp) {
  std::size_t corrupted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.for_each([&](const TreeKey& key, const TreePtr& tree) {
      if (alloc_fp == 0 || key.alloc_fp == alloc_fp) {
        tree->corrupt_for_testing();
        ++corrupted;
      }
    });
  }
  return corrupted;
}

std::size_t ShardedTreeCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace lama::svc
