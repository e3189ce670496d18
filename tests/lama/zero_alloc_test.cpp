// The zero-allocation guarantee, enforced: this binary replaces global
// operator new/delete with counting forwarders, and the tests assert that a
// warmed-up PlanExecutor replays compiled plans — and the service-side plan
// cache serves hits — without a single heap allocation on the calling
// thread, and that a warm MAP through the service and through the protocol
// session makes as many allocations at np 4096 as at np 64: a result costs
// a constant number of them, none per rank. The counters are thread_local
// and armed only inside the guarded region, so gtest bookkeeping and other
// threads never pollute the count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "cluster/alloc_serialize.hpp"
#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "support/strings.hpp"
#include "svc/plan_cache.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/tree_cache.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::size_t g_allocs = 0;

// Arms the counter for one scope; reads the count after disarming so the
// EXPECT itself may allocate freely.
class AllocGuard {
 public:
  AllocGuard() {
    g_allocs = 0;
    g_counting = true;
  }
  ~AllocGuard() { g_counting = false; }
  std::size_t finish() {
    g_counting = false;
    return g_allocs;
  }
};

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lama {
namespace {

TEST(ZeroAlloc, SteadyStateCompiledWalkAllocatesNothing) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  const MapOptions opts{.np = 24, .pus_per_proc = 2};

  PlanExecutor exec;
  MappingResult out;
  // Warm-up sizes the executor's arenas and the result's buffers.
  lama_map_compiled(alloc, opts, plan, exec, out);

  AllocGuard guard;
  for (int i = 0; i < 10; ++i) lama_map_compiled(alloc, opts, plan, exec, out);
  const std::size_t allocs = guard.finish();
  EXPECT_EQ(allocs, 0u);
  // The guarded runs really ran: the result is live and correct.
  test::expect_identical_mappings(lama_map(alloc, layout, opts, mtree), out,
                                  "steady state");
}

TEST(ZeroAlloc, SteadyStateHoldsWithCapsAndWraparound) {
  const Allocation alloc = test::hetero_two_node_offline_allocation();
  const ProcessLayout layout = ProcessLayout::parse("cnbsh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  MapOptions opts{.np = 17};  // > 9 online targets: wraparound sweeps
  opts.set_cap(ResourceType::kCore, 3);

  PlanExecutor exec;
  MappingResult out;
  lama_map_compiled(alloc, opts, plan, exec, out);

  AllocGuard guard;
  for (int i = 0; i < 10; ++i) lama_map_compiled(alloc, opts, plan, exec, out);
  EXPECT_EQ(guard.finish(), 0u);
  test::expect_identical_mappings(lama_map(alloc, layout, opts, mtree), out,
                                  "caps + wraparound");
}

TEST(ZeroAlloc, PlanCacheHitVerificationAllocatesNothing) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  svc::Counters counters;
  const svc::TreeKey key{allocation_fingerprint(alloc), layout.to_string()};
  auto tree = std::make_shared<const svc::CachedTree>(alloc, layout);
  svc::PlanCache cache(1, 8, 0, counters);
  // Miss compiles and caches; everything after is the hit path.
  ASSERT_FALSE(cache.get_or_compile(key, tree, true).hit);

  AllocGuard guard;
  for (int i = 0; i < 10; ++i) {
    const svc::PlanCache::Lookup lookup =
        cache.get_or_compile(key, tree, /*verify=*/true);
    if (!lookup.hit || lookup.plan == nullptr) {
      guard.finish();
      FAIL() << "expected a verified plan hit";
    }
  }
  EXPECT_EQ(guard.finish(), 0u);
  EXPECT_EQ(counters.plan_hits.load(), 10u);
  EXPECT_EQ(counters.plan_misses.load(), 1u);
}

// 64 nodes of the Figure 2 machine: 1,024 PUs, so np 4096 wraps into four
// sweeps.
Allocation large_allocation() {
  return allocate_all(Cluster::homogeneous(64, "socket:2 core:4 pu:2"));
}

TEST(ZeroAlloc, WarmServiceMapAllocationsDoNotGrowWithNp) {
  svc::MappingService service({.workers = 0});
  svc::MapRequest request;
  request.alloc = service.intern(large_allocation());
  request.spec = "lama:scbnh";
  auto warm_map_allocs = [&](std::size_t np) {
    request.opts.np = np;
    if (!service.map(request).ok()) return std::size_t{0};  // warm-up
    AllocGuard guard;
    const svc::MapResponse response = service.map(request);
    const std::size_t allocs = guard.finish();
    EXPECT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.mapping.num_procs(), np);
    return allocs;
  };
  const std::size_t small = warm_map_allocs(64);
  const std::size_t large = warm_map_allocs(4096);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

TEST(ZeroAlloc, WarmProtocolMapAllocationsDoNotGrowWithNp) {
  svc::MappingService service({.workers = 0});
  svc::ProtocolSession session(service);
  std::istringstream no_more;
  std::istringstream defs(
      svc::format_query(large_allocation(), "L0", 1, "lama"));
  std::string line;
  while (std::getline(defs, line)) {
    if (starts_with(line, "NODE ")) session.execute(line, no_more);
  }
  auto warm_execute_allocs = [&](const std::string& map_line) {
    session.execute(map_line, no_more);  // warm-up
    AllocGuard guard;
    const std::string reply = session.execute(map_line, no_more);
    const std::size_t allocs = guard.finish();
    EXPECT_TRUE(starts_with(reply, "OK hit=1")) << reply.substr(0, 80);
    return allocs;
  };
  const std::size_t small = warm_execute_allocs("MAP L0 64 lama:scbnh");
  const std::size_t large = warm_execute_allocs("MAP L0 4096 lama:scbnh");
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace lama
