// The benchmark's own tests: the seeded generator, the percentile rule, the
// oracle's reply checks, and the traced mode's self-time subtraction.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gen.hpp"
#include "ledger.hpp"
#include "oracle.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameStreamOtherSeedOtherStream) {
  for (const std::string& name : workload_names()) {
    const std::string a = make_workload(name, 7).stream_text();
    EXPECT_EQ(a, make_workload(name, 7).stream_text()) << name;
    EXPECT_NE(a, make_workload(name, 8).stream_text()) << name;
    EXPECT_NE(a.find("seed=7"), std::string::npos) << name;
  }
  EXPECT_THROW(make_workload("nosuch", 1), std::invalid_argument);
}

TEST(Generator, WarmSmallAllocationsAreDistinctAndFitTheCache) {
  const Workload w = make_workload("warm_small", 3);
  std::set<std::string> contents;
  for (const AllocSpec& a : w.allocs) contents.insert(a.serialized);
  EXPECT_EQ(contents.size(), w.allocs.size());
  EXPECT_EQ(w.warm.size(), 256u);  // 64 allocations x 4 layouts
}

// The seed changes which allocation gets what, not how much work the warm
// set holds: node counts are fixed and layouts come up evenly.
TEST(Generator, WarmSmallWarmSetIsStratified) {
  auto shape_of = [](const Workload& w) {
    std::multiset<std::size_t> nodes;
    for (const AllocSpec& a : w.allocs) nodes.insert(a.node_pus.size());
    return nodes;
  };
  const Workload first = make_workload("warm_small", 1);
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    const Workload w = make_workload("warm_small", seed);
    EXPECT_EQ(shape_of(w), shape_of(first)) << seed;
    std::map<std::string, std::size_t> layouts;
    for (const Op& op : w.warm) ++layouts[op.payload.substr(op.payload.find("lama:"))];
    for (const auto& [layout, uses] : layouts) {
      EXPECT_GE(uses, 21u) << layout;  // 256 warm pairs over 12 layouts
      EXPECT_LE(uses, 22u) << layout;
    }
  }
}

// churn's seed never changes the mix: every seed sends the same MAPs (np,
// layout, bind) and the same failure kinds and PU counts, and each
// (np, layout) MAP is the REMAP baseline of one failure in each of the four
// positions of the failure cycle.
TEST(Generator, ChurnScheduleDoesNotDependOnTheSeed) {
  auto schedule = [](const Workload& w) {
    std::vector<std::string> out;
    for (const std::vector<Op>& round : w.rounds) {
      for (const Op& op : round) {
        if (op.verb == WireVerb::kMap) out.push_back(op.payload);
        if (op.verb == WireVerb::kOffline) {
          out.push_back(std::to_string(w.failures[op.failure].pus.size()));
        }
      }
    }
    return out;
  };
  const Workload first = make_workload("churn", 1);
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    EXPECT_EQ(schedule(make_workload("churn", seed)), schedule(first)) << seed;
  }
  // The MAP that ends a cycle is the baseline of the next cycle's REMAP.
  std::map<std::string, std::set<std::size_t>> positions;
  std::string baseline;
  std::size_t cycle = 0;
  for (std::size_t r = 0; r < first.rounds.size() && cycle < 96 + 1; ++r) {
    for (const Op& op : first.rounds[r]) {
      if (op.verb == WireVerb::kOffline && !baseline.empty()) {
        positions[baseline.substr(0, baseline.find(" bind"))].insert(cycle % 4);
      }
      if (op.verb == WireVerb::kOffline) ++cycle;
      if (op.verb == WireVerb::kMap) baseline = op.payload;
    }
  }
  EXPECT_EQ(positions.size(), 24u);  // 3 np values x 8 layouts
  for (const auto& [map, seen] : positions) EXPECT_EQ(seen.size(), 4u) << map;
}

// Every workload fails the same nodes and PUs for every seed, since a
// REMAP's cost depends on which ranks the failed PUs held.
TEST(Generator, FailuresDoNotDependOnTheSeed) {
  auto failures = [](const Workload& w) {
    std::vector<std::string> out;
    for (const Failure& f : w.failures) {
      std::string one = f.alloc + " " + std::to_string(f.node);
      for (const std::size_t pu : f.pus) one += " " + std::to_string(pu);
      out.push_back(one);
    }
    return out;
  };
  for (const std::string& name : workload_names()) {
    const std::vector<std::string> first = failures(make_workload(name, 1));
    EXPECT_FALSE(first.empty()) << name;
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
      EXPECT_EQ(failures(make_workload(name, seed)), first) << name << " " << seed;
    }
  }
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(rank_index(20, 0.5), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(19, 0.5), 9u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);

  std::vector<double> v;
  for (int i = 19; i >= 1; --i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 0.5).has_value());
  v.push_back(20);
  ASSERT_TRUE(percentile(v, 0.5).has_value());
  EXPECT_EQ(*percentile(v, 0.5), 10.0);  // nearest rank 10 of 1..20

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(*percentile(hundred, 0.9), 90.0);
  hundred.pop_back();
  EXPECT_FALSE(percentile(hundred, 0.9).has_value());

  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Oracle, RejectsATamperedMapReply) {
  Workload w = make_workload("warm_small", 5);
  compute_expected(w);
  ReplyChecker checker(w);
  const Op& map = w.rounds.front().front();
  ASSERT_EQ(map.verb, WireVerb::kMap);
  std::string why;
  EXPECT_TRUE(checker.check(map, w.expected[map.expect], why)) << why;
  std::string tampered = w.expected[map.expect];
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_FALSE(checker.check(map, tampered, why));
  EXPECT_NE(why.find("differs from the oracle"), std::string::npos) << why;
}

// A hand-built stream: allocation "a" of three 4-PU nodes, node 1 failing.
Workload remap_fixture() {
  Workload w;
  w.allocs.push_back({"a", "", {4, 4, 4}});
  w.failures.push_back({"a", 1, {}});
  w.expected.push_back("OK hit=0 coalesced=0 np=3 sweeps=1 nodes=0,1,1 pus=0,0,2\n");
  return w;
}

TEST(Oracle, ChecksRemapByProperty) {
  const Workload w = remap_fixture();
  const Op map{.verb = WireVerb::kMap, .alloc = "a", .expect = 0};
  const Op remap{.verb = WireVerb::kRemap, .alloc = "a", .failure = 0};
  auto check = [&](const std::string& reply) {
    ReplyChecker checker(w);
    std::string why;
    EXPECT_TRUE(checker.check(map, w.expected[0], why)) << why;
    return checker.check(remap, reply, why);
  };
  const std::string head = "OK remap epoch=2 np=3 surviving=1 degraded=0 displaced=";
  EXPECT_TRUE(check(head + "1,2 nodes=0,2,2 pus=0,0,1\n"));
  EXPECT_FALSE(check(head + "1,2 nodes=0,1,2 pus=0,3,1\n"));   // still on node 1
  EXPECT_FALSE(check(head + "1,2 nodes=2,2,2 pus=0,1,2\n"));   // survivor moved
  EXPECT_FALSE(check(head + "1 nodes=0,2,1 pus=0,0,2\n"));     // kept a dead rank
  EXPECT_FALSE(check("ERR remap failed\n"));
}

TEST(Oracle, ChecksOptimizeByProperty) {
  Workload w;
  w.allocs.push_back({"a", "", {4, 4}});
  w.opt_cases.push_back({.alloc = "a", .np = 2, .pattern = "ring:1024"});
  const Op miss{.verb = WireVerb::kOptimize, .alloc = "a", .opt = 0, .hit = false};
  const std::string tail = " source=pack:2 layout=scbnh candidates=4 swaps=0 nodes=0,1 pus=0,3\n";
  ReplyChecker checker(w);
  std::string why;
  EXPECT_TRUE(checker.check(
      miss, "OK optimize hit=0 np=2 cost=90 static=100 improvement=0.1000" + tail, why))
      << why;
  EXPECT_DOUBLE_EQ(checker.gains()[0], 0.1);
  EXPECT_FALSE(checker.check(
      miss, "OK optimize hit=1 np=2 cost=90 static=100 improvement=0.1000" + tail, why));
  EXPECT_FALSE(checker.check(
      miss, "OK optimize hit=0 np=2 cost=110 static=100 improvement=0.0000" + tail, why));
  EXPECT_FALSE(checker.check(
      miss, "OK optimize hit=0 np=2 cost=80 static=100 improvement=0.2000" + tail, why))
      << "a second answer for the same case must match the first";
  EXPECT_FALSE(checker.check(miss,
                             "OK optimize hit=0 np=2 cost=90 static=100 improvement=0.1000"
                             " nodes=0,1 pus=0,4\n",
                             why));  // PU 4 does not exist
}

TEST(Ledger, SelfTimeIsInclusiveMinusTheNextLayerIn) {
  const std::vector<double> self = self_times({100, 60, 25, 5});
  EXPECT_EQ(self, (std::vector<double>{40, 35, 20, 5}));
  EXPECT_TRUE(self_times({}).empty());
}

TEST(Ledger, SpanLogKeepsItsCapAndCountsTheRest) {
  SpanLog log(2);
  const std::uint64_t parent = log.add("MAP", 0, 10, 0);
  log.add("svc.session.execute", 2, 8, parent);
  log.add("svc.service.map", 3, 7, parent);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.spans()[0].request, parent);
  EXPECT_EQ(log.spans()[1].request, parent);
  EXPECT_EQ(log.spans()[1].parent, parent);
}

}  // namespace
}  // namespace perfbench
