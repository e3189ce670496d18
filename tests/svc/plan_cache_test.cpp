// PlanCache unit tests plus the service-level compiled-path behavior:
// hit/miss accounting against the shared (fingerprint, layout) keys, the
// space limit's silent refusal, seal-verification recompiles, targeted
// invalidation, the compile_plans/custom-policy bypasses, and the new
// counters in every exposition format (STATS keys, metrics names and stage
// series). Byte-identity of what the compiled path serves is pinned down by
// the kernel suite; here we assert the service serves it from the cache.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/alloc_serialize.hpp"
#include "common/fixtures.hpp"
#include "svc/plan_cache.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

struct PlanCacheFixtures {
  Allocation alloc = test::figure2_allocation();
  ProcessLayout layout = ProcessLayout::parse("scbnh");
  TreeKey key{allocation_fingerprint(alloc), layout.to_string()};
  std::shared_ptr<const CachedTree> tree =
      std::make_shared<const CachedTree>(alloc, layout);
};

TEST(PlanCache, MissCompilesThenHitsServeTheSamePlan) {
  PlanCacheFixtures f;
  Counters counters;
  PlanCache cache(4, 8, 0, counters);
  obs::StageStats stats;

  PlanCache::Lookup miss;
  {
    // The compile is timed into whatever stats the request scope installs.
    const obs::TraceScope scope(&stats, nullptr);
    miss = cache.get_or_compile(f.key, f.tree, true);
  }
  ASSERT_NE(miss.plan, nullptr);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(counters.plan_misses.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.histogram(obs::Stage::kPlanCompile).snapshot().count, 1u);

  const PlanCache::Lookup hit = cache.get_or_compile(f.key, f.tree, true);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.plan.get(), miss.plan.get());
  EXPECT_EQ(counters.plan_hits.load(), 1u);
  EXPECT_TRUE(hit.plan->plan().default_policy);
}

TEST(PlanCache, SpaceLimitRefusesWithoutCountingAMiss) {
  PlanCacheFixtures f;
  Counters counters;
  PlanCache cache(1, 8, /*max_space=*/1, counters);  // everything is too big
  const PlanCache::Lookup refused = cache.get_or_compile(f.key, f.tree, true);
  EXPECT_EQ(refused.plan, nullptr);
  EXPECT_FALSE(refused.hit);
  EXPECT_EQ(counters.plan_misses.load(), 0u);
  EXPECT_EQ(counters.plan_hits.load(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, ZeroCapacityDisablesCompilation) {
  PlanCacheFixtures f;
  Counters counters;
  PlanCache cache(2, 0, 0, counters);
  EXPECT_EQ(cache.get_or_compile(f.key, f.tree, true).plan, nullptr);
  EXPECT_EQ(counters.plan_misses.load(), 0u);
}

TEST(PlanCache, SealMismatchDropsTheEntryAndRecompiles) {
  PlanCacheFixtures f;
  Counters counters;
  PlanCache cache(1, 8, 0, counters);
  const PlanCache::Lookup first = cache.get_or_compile(f.key, f.tree, true);
  ASSERT_NE(first.plan, nullptr);
  EXPECT_TRUE(first.plan->verify());

  // Corrupt the shared tree: the cached plan's memoized seal no longer
  // matches, so the next verified lookup recompiles instead of hitting.
  f.tree->corrupt_for_testing();
  EXPECT_FALSE(first.plan->verify());
  const PlanCache::Lookup recompiled =
      cache.get_or_compile(f.key, f.tree, /*verify=*/true);
  ASSERT_NE(recompiled.plan, nullptr);
  EXPECT_FALSE(recompiled.hit);
  EXPECT_NE(recompiled.plan.get(), first.plan.get());
  EXPECT_EQ(counters.plan_hits.load(), 0u);
  EXPECT_EQ(counters.plan_misses.load(), 2u);

  // Unverified lookups take the entry as-is.
  EXPECT_TRUE(cache.get_or_compile(f.key, f.tree, /*verify=*/false).hit);
}

TEST(PlanCache, InvalidateAllocDropsOnlyThatFingerprint) {
  PlanCacheFixtures f;
  Counters counters;
  PlanCache cache(4, 8, 0, counters);
  ASSERT_NE(cache.get_or_compile(f.key, f.tree, true).plan, nullptr);

  const Allocation other = test::small_smt_allocation();
  const TreeKey other_key{allocation_fingerprint(other), f.layout.to_string()};
  auto other_tree = std::make_shared<const CachedTree>(other, f.layout);
  ASSERT_NE(cache.get_or_compile(other_key, other_tree, true).plan, nullptr);
  ASSERT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.invalidate_alloc(f.key.alloc_fp), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // Targeted invalidation never bumps the epoch-invalidation counter — the
  // tree cache accounts the event.
  EXPECT_EQ(counters.invalidations.load(), 0u);
  EXPECT_TRUE(cache.get_or_compile(other_key, other_tree, true).hit);
}

TEST(PlanCacheService, WarmRequestsHitCompiledPlans) {
  MappingService service({.workers = 0});
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 24}};

  const MapResponse cold = service.map(request);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(service.counters().plan_misses.load(), 1u);
  EXPECT_EQ(service.cached_plans(), 1u);

  const MapResponse warm = service.map(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(service.counters().plan_hits.load(), 1u);
  // The compiled walk is what lama_map would have produced.
  test::expect_identical_mappings(cold.mapping, warm.mapping, "warm");
  EXPECT_EQ(
      service.stage_stats().histogram(obs::Stage::kPlanExec).snapshot().count,
      2u);
}

TEST(PlanCacheService, CompilePlansOffKeepsTheReferencePath) {
  ServiceConfig config{.workers = 0};
  config.compile_plans = false;
  MappingService service(config);
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 24}};
  ASSERT_TRUE(service.map(request).ok());
  ASSERT_TRUE(service.map(request).ok());
  EXPECT_EQ(service.cached_plans(), 0u);
  EXPECT_EQ(service.counters().plan_hits.load(), 0u);
  EXPECT_EQ(service.counters().plan_misses.load(), 0u);
  EXPECT_EQ(
      service.stage_stats().histogram(obs::Stage::kPlanExec).snapshot().count,
      0u);
}

TEST(PlanCacheService, CustomIterationPolicyBypassesThePlanCache) {
  MappingService service({.workers = 0});
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  MapRequest request{interned, "lama:scbnh", {.np = 8}};
  request.opts.iteration.set(ResourceType::kCore,
                             {.order = IterationOrder::kReverse});
  ASSERT_TRUE(service.map(request).ok());
  ASSERT_TRUE(service.map(request).ok());
  // Plans are keyed by (fingerprint, layout) only; a policy-overriding
  // request must never consult them.
  EXPECT_EQ(service.counters().plan_hits.load(), 0u);
  EXPECT_EQ(service.counters().plan_misses.load(), 0u);
  EXPECT_EQ(service.cached_plans(), 0u);
}

TEST(PlanCacheService, SpaceLimitFallsBackToTheReferenceWalk) {
  ServiceConfig config{.workers = 0};
  config.plan_space_limit = 1;  // nothing compiles
  MappingService service(config);
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 24}};
  const MapResponse cold = service.map(request);
  ASSERT_TRUE(cold.ok());
  const MapResponse warm = service.map(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);  // the tree cache still serves
  EXPECT_EQ(service.cached_plans(), 0u);
  EXPECT_EQ(service.counters().plan_misses.load(), 0u);
  test::expect_identical_mappings(cold.mapping, warm.mapping, "fallback");
}

TEST(PlanCacheService, CountersAppearInEveryExposition) {
  MappingService service({.workers = 0});
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 8}};
  ASSERT_TRUE(service.map(request).ok());
  ASSERT_TRUE(service.map(request).ok());

  const std::string stats = service.stats_line();
  for (const char* key :
       {"plan_hits=1", "plan_misses=1", "plan_compile_p99_us=",
        "compiled_map_p50_us=", "compiled_map_p99_us=", "cache_plans=1"}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << "\n" << stats;
  }

  // The compile and the two executions are the plan_compile and plan_exec
  // stage series.
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  const std::string prom = snap.to_prometheus();
  for (const char* name :
       {"lama_plan_cache_hits_total 1", "lama_plan_cache_misses_total 1",
        "lama_cache_plans 1",
        "lama_stage_latency_ns_count{stage=\"plan_compile\"} 1",
        "lama_stage_latency_ns_count{stage=\"plan_exec\"} 2"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name << "\n" << prom;
  }
}

}  // namespace
}  // namespace lama::svc
