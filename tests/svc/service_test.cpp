#include "svc/service.hpp"

#include <gtest/gtest.h>

#include "cluster/alloc_serialize.hpp"
#include "common/fixtures.hpp"
#include "lama/baselines.hpp"
#include "support/error.hpp"

namespace lama::svc {
namespace {

using lama::test::figure2_allocation;

void expect_same_mapping(const MappingResult& a, const MappingResult& b) {
  ASSERT_EQ(a.num_procs(), b.num_procs());
  for (std::size_t i = 0; i < a.num_procs(); ++i) {
    EXPECT_EQ(a.node(i), b.node(i));
    EXPECT_EQ(a.pus(i).to_string(), b.pus(i).to_string());
    EXPECT_EQ(test::coord_vector(a, i), test::coord_vector(b, i));
  }
}

TEST(Service, MatchesDirectLamaMap) {
  MappingService service({.workers = 0});
  const Allocation alloc = figure2_allocation();
  const InternedAlloc interned = service.intern(alloc);

  const MapResponse response =
      service.map({interned, "lama:scbnh", {.np = 24}});
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_FALSE(response.cache_hit);  // cold cache
  expect_same_mapping(response.mapping,
                      lama_map(alloc, "scbnh", {.np = 24}));
}

TEST(Service, RepeatQueriesHitTheCache) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(figure2_allocation());
  const MapResponse cold = service.map({interned, "lama:scbnh", {.np = 8}});
  const MapResponse warm = service.map({interned, "lama:scbnh", {.np = 16}});
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);  // np differs, tree key does not
  EXPECT_EQ(service.counters().cache_hits.load(), 1u);
  EXPECT_EQ(service.counters().cache_misses.load(), 1u);
  EXPECT_EQ(service.cached_trees(), 1u);
  expect_same_mapping(
      warm.mapping, lama_map(figure2_allocation(), "scbnh", {.np = 16}));
}

TEST(Service, DefaultLamaSpecUsesFullPack) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(figure2_allocation());
  const MapResponse bare = service.map({interned, "lama", {.np = 8}});
  const MapResponse full =
      service.map({interned, std::string("lama:") + kLamaDefaultLayout,
                   {.np = 8}});
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(full.cache_hit);  // same canonical layout -> same tree
  expect_same_mapping(bare.mapping, full.mapping);
}

TEST(Service, BaselineComponentsBypassCache) {
  MappingService service({.workers = 0});
  const Allocation alloc = figure2_allocation();
  const InternedAlloc interned = service.intern(alloc);
  const MapResponse response = service.map({interned, "byslot", {.np = 8}});
  ASSERT_TRUE(response.ok());
  expect_same_mapping(response.mapping, map_by_slot(alloc, {.np = 8}));
  EXPECT_EQ(service.counters().uncached.load(), 1u);
  EXPECT_EQ(service.cached_trees(), 0u);
}

TEST(Service, BindingRunsOnTheCachedAllocation) {
  MappingService service({.workers = 0});
  const Allocation alloc = figure2_allocation();
  const InternedAlloc interned = service.intern(alloc);
  MapRequest request{interned, "lama:scbnh", {.np = 8}};
  request.binding = BindingPolicy{BindTarget::kCore};
  const MapResponse response = service.map(request);
  ASSERT_TRUE(response.ok()) << response.error;
  ASSERT_TRUE(response.binding.has_value());
  ASSERT_EQ(response.binding->bindings.size(), 8u);
  for (const ProcessBinding& b : response.binding->bindings) {
    EXPECT_EQ(b.width, 2u);  // a core's two hardware threads
  }
}

TEST(Service, ErrorsAreReportedNotThrown) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(figure2_allocation());
  // Unknown component, malformed layout, zero np, un-interned allocation.
  EXPECT_FALSE(service.map({interned, "ghost", {.np = 4}}).ok());
  EXPECT_FALSE(service.map({interned, "lama:zz", {.np = 4}}).ok());
  EXPECT_FALSE(service.map({interned, "lama:scbnh", {.np = 0}}).ok());
  EXPECT_FALSE(service.map({InternedAlloc{}, "lama", {.np = 4}}).ok());
  EXPECT_EQ(service.counters().errors.load(), 4u);
  EXPECT_EQ(service.counters().completed.load(), 4u);
}

TEST(Service, OversubscribePolicyHonored) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(figure2_allocation(1));
  const MapResponse denied = service.map(
      {interned, "lama:scbnh", {.np = 64, .allow_oversubscribe = false}});
  EXPECT_FALSE(denied.ok());
  const MapResponse allowed = service.map(
      {interned, "lama:scbnh", {.np = 64, .allow_oversubscribe = true}});
  EXPECT_TRUE(allowed.ok());
  EXPECT_TRUE(allowed.mapping.pu_oversubscribed);
}

TEST(Service, InternSerializedMatchesIntern) {
  MappingService service({.workers = 0});
  const Allocation alloc = figure2_allocation();
  const InternedAlloc direct = service.intern(alloc);
  const InternedAlloc wired =
      service.intern_serialized(serialize_allocation(alloc));
  EXPECT_EQ(direct.fingerprint, wired.fingerprint);
  // Both routes land on the same cache entry.
  service.map({direct, "lama:scbnh", {.np = 4}});
  const MapResponse via_wire = service.map({wired, "lama:scbnh", {.np = 4}});
  EXPECT_TRUE(via_wire.cache_hit);
}

TEST(Service, InternRejectsUnusableAllocation) {
  MappingService service({.workers = 0});
  EXPECT_THROW(service.intern(Allocation{}), MappingError);
  EXPECT_THROW(service.intern_serialized(""), MappingError);
}

TEST(Service, BatchPreservesRequestOrder) {
  MappingService service({.workers = 4});
  const InternedAlloc interned = service.intern(figure2_allocation());
  std::vector<MapRequest> batch;
  for (std::size_t np = 1; np <= 12; ++np) {
    batch.push_back({interned, "lama:scbnh", {.np = np}});
  }
  const std::vector<MapResponse> responses = service.map_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok());
    EXPECT_EQ(responses[i].mapping.num_procs(), i + 1);
  }
  // One tree build served the whole batch.
  const Counters& c = service.counters();
  EXPECT_EQ(c.cache_hits.load() + c.cache_misses.load() + c.coalesced.load(),
            batch.size());
  EXPECT_EQ(service.cached_trees(), 1u);
}

TEST(Service, BatchMixesComponentsAndErrors) {
  MappingService service({.workers = 2});
  const InternedAlloc interned = service.intern(figure2_allocation());
  const std::vector<MapRequest> batch = {
      {interned, "lama:scbnh", {.np = 4}},
      {interned, "bynode", {.np = 4}},
      {interned, "ghost", {.np = 4}},
      {interned, "lama:scbnh", {.np = 4}},
  };
  const std::vector<MapResponse> responses = service.map_batch(batch);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_TRUE(responses[1].ok());
  EXPECT_FALSE(responses[2].ok());
  EXPECT_TRUE(responses[3].ok());
  expect_same_mapping(responses[0].mapping, responses[3].mapping);
}

}  // namespace
}  // namespace lama::svc
