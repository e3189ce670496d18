// Resilience suite (ctest label "ha"): the service's behavior under faults.
// Covers the OFFLINE/ONLINE/REMAP protocol verbs with epoch bookkeeping and
// cache invalidation, per-request deadlines, admission-control shedding with
// retry hints, integrity-check degradation, the retrying client's backoff
// schedule, and the seeded fault-injection harness replaying every fault
// class against a live session. Everything is deterministic: fixed seeds,
// injectable sleeps, no wall-clock dependence beyond "a deadline of 0 ms is
// already expired".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/alloc_serialize.hpp"
#include "dur/state_store.hpp"
#include "dur/temp_dir.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "svc/client.hpp"
#include "svc/fault_injector.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

Allocation small_alloc(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:2 pu:2"));
}

// Drives a ProtocolSession line by line and returns one response body (no
// trailing newline) per call.
struct SessionDriver {
  explicit SessionDriver(MappingService& service) : session(service) {}
  std::string operator()(const std::string& line) {
    std::string response = session.execute(line, no_more);
    if (!response.empty() && response.back() == '\n') response.pop_back();
    return response;
  }
  ProtocolSession session;
  std::istringstream no_more;
};

void define_alloc(SessionDriver& drive, const Allocation& alloc,
                  const std::string& id) {
  std::istringstream lines(format_query(alloc, id, 1, "lama"));
  std::string line;
  while (std::getline(lines, line)) {
    if (!starts_with(line, "NODE ")) continue;
    ASSERT_TRUE(starts_with(drive(line), "OK node")) << line;
  }
}

TEST(Resilience, OfflineBumpsEpochAndInvalidatesCache) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");

  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  EXPECT_EQ(service.cached_trees(), 1u);

  const std::string off = drive("OFFLINE a 1");
  EXPECT_TRUE(starts_with(off, "OK offline a node=1 epoch=")) << off;
  // The epoch bump dropped the stale tree immediately.
  EXPECT_EQ(service.cached_trees(), 0u);
  EXPECT_EQ(service.counters().invalidations.load(), 1u);

  // The next MAP sees the reduced allocation: a new fingerprint, a new
  // tree, and only node 0's PUs.
  const std::string remapped = drive("MAP a 4 lama");
  ASSERT_TRUE(starts_with(remapped, "OK hit=0")) << remapped;
  EXPECT_NE(remapped.find("nodes=0,0,0,0"), std::string::npos) << remapped;
  EXPECT_EQ(service.cached_trees(), 1u);
}

TEST(Resilience, OnlineRestoresCapacity) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");

  EXPECT_TRUE(starts_with(drive("OFFLINE a 0"), "OK offline"));
  const std::string while_down = drive("MAP a 8 lama");
  ASSERT_TRUE(starts_with(while_down, "OK")) << while_down;
  EXPECT_NE(while_down.find("nodes=1,1,1,1,1,1,1,1"), std::string::npos)
      << while_down;

  EXPECT_TRUE(starts_with(drive("ONLINE a 0"), "OK online"));
  const std::string restored = drive("MAP a 16 lama");
  ASSERT_TRUE(starts_with(restored, "OK")) << restored;  // full capacity back
}

TEST(Resilience, PuOfflineIsReversible) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(1), "a");

  EXPECT_TRUE(starts_with(drive("OFFLINE a 0 0 1"), "OK offline"));
  const std::string reduced = drive("MAP a 2 lama");
  ASSERT_TRUE(starts_with(reduced, "OK")) << reduced;
  EXPECT_NE(reduced.find("pus=2,3"), std::string::npos) << reduced;

  EXPECT_TRUE(starts_with(drive("ONLINE a 0 0 1"), "OK online"));
  const std::string full = drive("MAP a 2 lama");
  EXPECT_NE(full.find("pus=0,1"), std::string::npos) << full;
}

TEST(Resilience, RemapPreservesSurvivorsOverTheWire) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");

  // nsch alternates nodes: even ranks node 0, odd ranks node 1.
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama:nsch"), "OK"));
  ASSERT_TRUE(starts_with(drive("OFFLINE a 1"), "OK offline"));

  const std::string remap = drive("REMAP a");
  ASSERT_TRUE(starts_with(remap, "OK remap")) << remap;
  EXPECT_NE(remap.find("surviving=2"), std::string::npos) << remap;
  EXPECT_NE(remap.find("displaced=1,3"), std::string::npos) << remap;
  EXPECT_NE(remap.find("nodes=0,0,0,0"), std::string::npos) << remap;
  EXPECT_EQ(service.counters().remaps.load(), 1u);

  // A second REMAP against the same availability moves nothing.
  const std::string again = drive("REMAP a");
  ASSERT_TRUE(starts_with(again, "OK remap")) << again;
  EXPECT_NE(again.find("displaced=-"), std::string::npos) << again;
}

TEST(Resilience, RemapWithoutPriorMapIsCleanError) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");
  const std::string response = drive("REMAP a");
  EXPECT_TRUE(starts_with(response, "ERR ")) << response;
  EXPECT_NE(response.find("no previous lama mapping"), std::string::npos)
      << response;
  EXPECT_TRUE(starts_with(drive("REMAP ghost"), "ERR"));
}

TEST(Resilience, DeadlineCancelsCleanly) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(small_alloc());

  // A deadline already in the past cancels before any work happens.
  MapRequest request{interned, "lama", {.np = 8}};
  request.opts.deadline_ns = 1;  // steady-clock epoch: long gone
  const MapResponse response = service.map(request);
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("cancelled"), std::string::npos)
      << response.error;
  EXPECT_EQ(service.counters().deadlined.load(), 1u);
  EXPECT_EQ(service.counters().errors.load(), 1u);
  EXPECT_EQ(service.counters().completed.load(), 1u);

  // Without a deadline the identical request succeeds: the service is not
  // poisoned by a cancelled predecessor.
  const MapResponse retry = service.map({interned, "lama", {.np = 8}});
  EXPECT_TRUE(retry.ok()) << retry.error;
}

TEST(Resilience, DefaultTimeoutAppliesToTimeoutlessRequests) {
  ServiceConfig config{.workers = 0};
  config.default_timeout_ms = 60'000;  // one minute: must not fire
  MappingService service(config);
  const InternedAlloc interned = service.intern(small_alloc());
  EXPECT_TRUE(service.map({interned, "lama", {.np = 4}}).ok());

  // A stalling fault hook burns the budget before the mapping starts.
  ServiceConfig tight{.workers = 0};
  tight.default_timeout_ms = 1;
  MappingService slow(tight);
  const InternedAlloc interned2 = slow.intern(small_alloc());
  slow.set_fault_hook([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  const MapResponse response = slow.map({interned2, "lama", {.np = 4}});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(slow.counters().deadlined.load(), 1u);
}

TEST(Resilience, AdmissionControlShedsWithRetryHint) {
  ServiceConfig config{.workers = 0};
  config.max_inflight = 1;
  config.retry_after_ms = 7;
  MappingService service(config);
  const InternedAlloc interned = service.intern(small_alloc());

  // Hold the only slot open with a stalling hook while a second request
  // arrives from another thread.
  std::atomic<bool> release{false};
  service.set_fault_hook([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::thread holder([&] { (void)service.map({interned, "lama", {.np = 4}}); });
  while (service.counters().requests.load() == 0) std::this_thread::yield();

  service.set_fault_hook(nullptr);  // only the holder should stall
  const MapResponse shed = service.map({interned, "lama", {.np = 4}});
  EXPECT_TRUE(shed.busy);
  EXPECT_EQ(shed.retry_after_ms, 7u);
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(format_map_response(shed), "ERR busy retry-after=7");
  release.store(true);
  holder.join();

  EXPECT_EQ(service.counters().shed.load(), 1u);
  EXPECT_EQ(service.counters().requests.load(), 2u);
  EXPECT_EQ(service.counters().completed.load(), 2u);
  EXPECT_EQ(service.counters().errors.load(), 1u);

  // With the slot free again, requests flow.
  EXPECT_TRUE(service.map({interned, "lama", {.np = 4}}).ok());
}

TEST(Resilience, BoundedBatchQueueShedsOverflow) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 1;
  MappingService service(config);
  const InternedAlloc interned = service.intern(small_alloc());

  // Stall the single worker so the queue backs up past its bound.
  std::atomic<bool> release{false};
  service.set_fault_hook([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true);
  });
  std::vector<MapRequest> batch(8, MapRequest{interned, "lama", {.np = 4}});
  const std::vector<MapResponse> responses = service.map_batch(batch);
  releaser.join();
  service.set_fault_hook(nullptr);

  std::size_t ok = 0, busy = 0;
  for (const MapResponse& r : responses) {
    if (r.ok()) ++ok;
    if (r.busy) ++busy;
  }
  EXPECT_EQ(ok + busy, batch.size());
  EXPECT_GE(ok, 1u);   // the stalled-then-released work completed
  EXPECT_GE(busy, 1u);  // and the overflow was shed, not queued forever
  EXPECT_EQ(service.counters().shed.load(), busy);
}

TEST(Resilience, IntegrityFailureDegradesToFreshMapping) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(small_alloc());

  const MapResponse cold = service.map({interned, "lama", {.np = 8}});
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(service.corrupt_cached_trees_for_testing(), 1u);

  // The corrupted hit is detected, dropped, and served uncached — with the
  // same placements the healthy path produces.
  const MapResponse degraded = service.map({interned, "lama", {.np = 8}});
  ASSERT_TRUE(degraded.ok()) << degraded.error;
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.cache_hit);
  ASSERT_EQ(degraded.mapping.num_procs(), cold.mapping.num_procs());
  for (std::size_t i = 0; i < cold.mapping.num_procs(); ++i) {
    EXPECT_EQ(degraded.mapping.pus(i).to_string(),
              cold.mapping.pus(i).to_string());
  }
  EXPECT_EQ(service.counters().integrity_failures.load(), 1u);
  EXPECT_EQ(service.counters().degraded.load(), 1u);
  EXPECT_EQ(service.cached_trees(), 0u);  // the bad tree is gone

  // The next request rebuilds a healthy tree and caching resumes.
  const MapResponse rebuilt = service.map({interned, "lama", {.np = 8}});
  EXPECT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt.degraded);
  const MapResponse warm = service.map({interned, "lama", {.np = 8}});
  EXPECT_TRUE(warm.cache_hit);
}

TEST(Resilience, PlanCacheEvictedWithTreesOnEpochBump) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");

  // Cold MAP builds the tree and compiles its plan; warm MAP hits the plan.
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  EXPECT_EQ(service.cached_trees(), 1u);
  EXPECT_EQ(service.cached_plans(), 1u);
  EXPECT_EQ(service.counters().plan_misses.load(), 1u);
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  EXPECT_EQ(service.counters().plan_hits.load(), 1u);

  // The epoch bump retires the allocation: stale-epoch plans leave with
  // their trees, and the invalidation is still counted exactly once.
  EXPECT_TRUE(starts_with(drive("OFFLINE a 1"), "OK offline"));
  EXPECT_EQ(service.cached_trees(), 0u);
  EXPECT_EQ(service.cached_plans(), 0u);
  EXPECT_EQ(service.counters().invalidations.load(), 1u);

  // The reduced allocation maps under a new fingerprint: fresh tree, fresh
  // plan, no spurious hit against the retired epoch.
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  EXPECT_EQ(service.cached_plans(), 1u);
  EXPECT_EQ(service.counters().plan_misses.load(), 2u);
  EXPECT_EQ(service.counters().plan_hits.load(), 1u);
}

TEST(Resilience, IntegrityFailureDropsTheCompiledPlanToo) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(small_alloc());
  const MapResponse cold = service.map({interned, "lama", {.np = 8}});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(service.cached_plans(), 1u);
  ASSERT_EQ(service.corrupt_cached_trees_for_testing(), 1u);

  // The rejected tree's compiled plan shares it — dropped with the tree,
  // never executed.
  const MapResponse degraded = service.map({interned, "lama", {.np = 8}});
  ASSERT_TRUE(degraded.ok()) << degraded.error;
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(service.cached_plans(), 0u);

  // Recovery: the rebuild recompiles and warm requests hit the plan again,
  // with the same placements the cold path produced.
  const MapResponse rebuilt = service.map({interned, "lama", {.np = 8}});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(service.cached_plans(), 1u);
  const MapResponse warm = service.map({interned, "lama", {.np = 8}});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.mapping.num_procs(), cold.mapping.num_procs());
  for (std::size_t i = 0; i < cold.mapping.num_procs(); ++i) {
    EXPECT_EQ(warm.mapping.pus(i).to_string(),
              cold.mapping.pus(i).to_string());
  }
}

TEST(Resilience, ClientRetriesBusyWithBackoffAndHintFloor) {
  // A fake transport: busy twice, then OK. Records nothing but the count.
  std::size_t calls = 0;
  QueryClient client(
      [&calls](const std::string&) -> std::string {
        ++calls;
        return calls <= 2 ? "ERR busy retry-after=40" : "OK hit=1";
      },
      RetryPolicy{.max_attempts = 5, .base_ms = 10, .max_ms = 1000,
                  .seed = 123});
  std::vector<std::uint32_t> sleeps;
  client.set_sleeper([&sleeps](std::uint32_t ms) { sleeps.push_back(ms); });

  const QueryResult result = client.send("MAP a 4 lama");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_FALSE(result.gave_up_busy);
  ASSERT_EQ(sleeps.size(), 2u);
  // Every delay respects the server hint as a floor and the policy cap.
  for (const std::uint32_t ms : sleeps) {
    EXPECT_GE(ms, 40u);
    EXPECT_LE(ms, 1000u);
  }
  EXPECT_EQ(result.total_backoff_ms,
            static_cast<std::uint64_t>(sleeps[0]) + sleeps[1]);
}

TEST(Resilience, ClientGivesUpAfterMaxAttempts) {
  std::size_t calls = 0;
  QueryClient client(
      [&calls](const std::string&) -> std::string {
        ++calls;
        return "ERR busy retry-after=1";
      },
      RetryPolicy{.max_attempts = 3, .base_ms = 1, .max_ms = 4, .seed = 9});
  client.set_sleeper([](std::uint32_t) {});
  const QueryResult result = client.send("MAP a 4 lama");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.gave_up_busy);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(calls, 3u);
}

TEST(Resilience, ClientBackoffIsDeterministicPerSeed) {
  const auto schedule = [](std::uint64_t seed) {
    QueryClient client([](const std::string&) { return std::string("OK"); },
                       RetryPolicy{.seed = seed});
    std::vector<std::uint32_t> out;
    for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
      out.push_back(client.backoff_ms(attempt, 0));
    }
    return out;
  };
  EXPECT_EQ(schedule(7), schedule(7));
  EXPECT_NE(schedule(7), schedule(8));  // jitter actually varies by seed
  // Exponential envelope: attempt k is bounded by base * 2^(k-1) and max.
  const RetryPolicy policy;
  const auto s = schedule(7);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint64_t cap = std::min<std::uint64_t>(
        policy.max_ms, static_cast<std::uint64_t>(policy.base_ms) << i);
    EXPECT_LE(s[i], cap);
    EXPECT_GE(s[i], cap / 2);
  }
}

TEST(Resilience, EndToEndClientAgainstLiveSession) {
  // The retrying client driving a real ProtocolSession: NODE lines then the
  // retried MAP, through the same format_query/stream the CLI uses.
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  QueryClient client([&drive](const std::string& line) { return drive(line); },
                     RetryPolicy{.max_attempts = 4, .base_ms = 1});
  client.set_sleeper([](std::uint32_t) {});
  const QueryResult result =
      client.query(small_alloc(), "e2e", 8, "lama", "oversub=0");
  EXPECT_TRUE(result.ok()) << result.response;
  EXPECT_EQ(result.attempts, 1u);  // single-threaded: never actually busy
  EXPECT_TRUE(starts_with(result.response, "OK hit=0")) << result.response;
}

TEST(Resilience, FaultInjectionSchedulesHoldInvariants) {
  // The acceptance gate: a seeded schedule covering every fault class runs
  // against a live session with no hangs, no crashes, and the counter
  // invariants intact — across several seeds.
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(3, "socket:2 core:4 pu:2"));
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL, 0xDEADULL}) {
    MappingService service({.workers = 0});
    const FaultPlan plan = FaultPlan::random(seed, 150, FaultMix{}, alloc);

    // The plan really covers at least 3 distinct fault classes.
    std::set<FaultKind> kinds;
    for (const FaultEvent& e : plan.events) kinds.insert(e.kind);
    ASSERT_GE(kinds.size(), 3u) << "seed " << seed;

    const InjectionOutcome outcome =
        run_fault_injection(service, alloc, plan);
    EXPECT_TRUE(outcome.passed())
        << "seed " << seed << "\n" << outcome.report();
    EXPECT_EQ(outcome.requests_sent, 150u);
    EXPECT_GT(outcome.responses_ok, 0u) << "seed " << seed;
    EXPECT_EQ(outcome.faults_applied, plan.events.size());
  }
}

TEST(Resilience, FaultInjectionIsDeterministic) {
  const Allocation alloc = small_alloc(3);
  const FaultPlan plan = FaultPlan::random(99, 80, FaultMix{}, alloc);
  MappingService a({.workers = 0});
  MappingService b({.workers = 0});
  const InjectionOutcome first = run_fault_injection(a, alloc, plan);
  const InjectionOutcome second = run_fault_injection(b, alloc, plan);
  EXPECT_EQ(first.report(), second.report());
  // Count-type counters match exactly (latency histograms do not: they
  // measure wall time).
  EXPECT_EQ(a.counters().requests.load(), b.counters().requests.load());
  EXPECT_EQ(a.counters().errors.load(), b.counters().errors.load());
  EXPECT_EQ(a.counters().cache_hits.load(), b.counters().cache_hits.load());
  EXPECT_EQ(a.counters().remaps.load(), b.counters().remaps.load());
  EXPECT_EQ(a.counters().invalidations.load(),
            b.counters().invalidations.load());
  EXPECT_EQ(a.counters().degraded.load(), b.counters().degraded.load());
}

TEST(Resilience, MalformedCorpusAlwaysAnswersErr) {
  MappingService service({.workers = 0});
  ProtocolSession session(service);
  std::istringstream no_more;
  SplitMix64 rng(4242);
  for (int i = 0; i < 200; ++i) {
    const std::string line = malformed_request_line(rng);
    const std::string response = session.execute(line, no_more);
    ASSERT_TRUE(starts_with(response, "ERR"))
        << "accepted: '" << line << "' -> " << response;
  }
  // The session survived 200 hostile lines and still serves real work.
  SessionDriver drive(service);
  // (fresh driver shares the service, not the session — define and map)
  define_alloc(drive, small_alloc(), "ok");
  EXPECT_TRUE(starts_with(drive("MAP ok 4 lama"), "OK"));
}

TEST(Resilience, NumericOverflowAnswersCleanErr) {
  MappingService service({.workers = 0});
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");
  EXPECT_TRUE(starts_with(drive("MAP a 18446744073709551616 lama"), "ERR"));
  EXPECT_TRUE(starts_with(drive("MAP a 99999999999999999999999 lama"), "ERR"));
  EXPECT_TRUE(starts_with(drive("MAP a -1 lama"), "ERR"));
  EXPECT_TRUE(starts_with(drive("MAP a 4 lama pus=999999999999"), "ERR"));
  EXPECT_TRUE(starts_with(drive("MAP a 4 lama npernode=18446744073709551615"),
                          "ERR"));
  EXPECT_TRUE(starts_with(drive("BATCH 4294967297"), "ERR"));
  EXPECT_TRUE(starts_with(drive("OFFLINE a 18446744073709551615"), "ERR"));
  // And the session still works.
  EXPECT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  EXPECT_EQ(service.counters().errors.load(), 0u);  // parse errors pre-admit
}

// --- Durability under faults -----------------------------------------------
// The property at the heart of the snapshot design: compacting must be
// invisible. For any mutation sequence, restoring from (snapshot + journal
// since it) must land on the same state digest as replaying the journal from
// genesis — across randomized OFFLINE/ONLINE/REMAP/MAP sequences.

TEST(Resilience, SnapshotPlusReplayEqualsGenesisReplay) {
  const Allocation alloc = small_alloc(3);
  for (const std::uint64_t seed : {11ULL, 77ULL, 4242ULL, 0xBEEFULL}) {
    // Build a randomized mutation script. Seeded: failures reproduce.
    SplitMix64 rng(seed);
    std::vector<std::string> script;
    {
      std::istringstream defs(format_query(alloc, "p", 1, "lama"));
      std::string line;
      while (std::getline(defs, line)) {
        if (starts_with(line, "NODE ")) script.push_back(line);
      }
    }
    script.push_back("MAP p 6 lama:nsch");  // REMAP needs a baseline
    std::size_t offline_nodes = 0;
    for (int i = 0; i < 40; ++i) {
      const std::size_t node = rng.next_below(3);
      switch (rng.next_below(4)) {
        case 0:
          // Never take the last node down: REMAP must stay possible.
          if (offline_nodes + 1 < 3) {
            script.push_back("OFFLINE p " + std::to_string(node));
            ++offline_nodes;
          }
          break;
        case 1:
          script.push_back("ONLINE p " + std::to_string(node));
          offline_nodes = 0;  // conservative: at most overestimates capacity
          break;
        case 2:
          script.push_back("REMAP p");
          break;
        default:
          script.push_back("MAP p " + std::to_string(2 + rng.next_below(4)) +
                           " lama");
          break;
      }
    }

    // Drive the identical script through two stores: one compacting
    // aggressively (snapshot every 5 mutations), one never (journal from
    // genesis). OFFLINE of an already-offline node answers ERR — fine, both
    // sessions see the same answer and journal the same lines.
    const auto run_script = [&](dur::StateStore& store) {
      MappingService service({.workers = 0});
      service.attach_durability(&store);
      ProtocolSession session(service);
      std::istringstream no_more;
      session.restore_from(store);
      for (const std::string& line : script) {
        (void)session.execute(line, no_more);
      }
      store.flush();
      return session.state_digest();
    };
    dur::TempDir compacted_dir, genesis_dir;
    ASSERT_TRUE(compacted_dir.ok());
    ASSERT_TRUE(genesis_dir.ok());
    dur::StateStore compacted(
        {.dir = compacted_dir.path(), .snapshot_every = 5});
    dur::StateStore genesis(
        {.dir = genesis_dir.path(), .snapshot_every = 0});
    const std::uint64_t live_a = run_script(compacted);
    const std::uint64_t live_b = run_script(genesis);
    ASSERT_EQ(live_a, live_b) << "seed " << seed;

    // Restore each directory into a fresh session: snapshot+replay and pure
    // genesis replay must both rebuild the live digest exactly.
    const auto restore_digest = [](const std::string& dir,
                                   std::uint64_t expect) {
      MappingService service({.workers = 0});
      dur::StateStore store({.dir = dir, .prewarm = false});
      service.attach_durability(&store);
      ProtocolSession session(service);
      const ProtocolSession::RecoveryInfo info = session.restore_from(store);
      EXPECT_TRUE(info.self_check_ok);
      EXPECT_EQ(info.replay_errors, 0u);
      EXPECT_EQ(session.state_digest(), expect);
    };
    restore_digest(compacted_dir.path(), live_a);
    restore_digest(genesis_dir.path(), live_a);
  }
}

TEST(Resilience, DurabilityFaultClassesHoldInvariants) {
  // The four durability fault classes — journal write failures, fsync
  // stalls, sealed-record corruption, and a kill at a random byte during
  // recovery — against a live session with a real store. The recovery
  // self-check inside the harness restores from the (possibly truncated,
  // possibly corrupt) directory and must come up clean every time.
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(3, "socket:2 core:4 pu:2"));
  FaultMix mix;
  mix.journal_write_fails = 2;
  mix.fsync_stalls = 1;
  mix.corrupt_records = 2;
  mix.recovery_kills = 2;
  for (const std::uint64_t seed : {3ULL, 21ULL, 0xACEULL}) {
    dur::TempDir dir;
    ASSERT_TRUE(dir.ok());
    MappingService service({.workers = 0});
    dur::StateStore store({.dir = dir.path()});
    service.attach_durability(&store);
    const FaultPlan plan = FaultPlan::random(seed, 120, mix, alloc);

    std::set<FaultKind> kinds;
    for (const FaultEvent& e : plan.events) kinds.insert(e.kind);
    ASSERT_TRUE(kinds.count(FaultKind::kJournalWriteFail)) << "seed " << seed;
    ASSERT_TRUE(kinds.count(FaultKind::kKillDuringRecovery))
        << "seed " << seed;

    const InjectionOutcome outcome = run_fault_injection(service, alloc, plan);
    EXPECT_TRUE(outcome.passed()) << "seed " << seed << "\n"
                                  << outcome.report();
    EXPECT_EQ(outcome.faults_applied, plan.events.size());
    // The injected write failures really dropped records (counted, silent).
    EXPECT_GE(store.stats().journal.write_errors, 2u);
  }
}

TEST(Resilience, DefaultFaultMixDrawsNoDurabilityEvents) {
  // FaultMix's durability counts default to 0, and a zero count draws
  // nothing from the seed stream — so plans recorded before the classes
  // existed replay byte-identically under FaultMix{}. Checked here as: the
  // default mix schedules no durability events, and the same seed always
  // yields the same plan.
  const Allocation alloc = small_alloc(3);
  const FaultPlan plan = FaultPlan::random(99, 80, FaultMix{}, alloc);
  for (const FaultEvent& e : plan.events) {
    EXPECT_NE(e.kind, FaultKind::kJournalWriteFail);
    EXPECT_NE(e.kind, FaultKind::kFsyncStall);
    EXPECT_NE(e.kind, FaultKind::kCorruptRecord);
    EXPECT_NE(e.kind, FaultKind::kKillDuringRecovery);
  }
  const FaultPlan again = FaultPlan::random(99, 80, FaultMix{}, alloc);
  ASSERT_EQ(again.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(again.events[i].at_request, plan.events[i].at_request);
    EXPECT_EQ(again.events[i].node, plan.events[i].node);
    EXPECT_EQ(again.events[i].payload, plan.events[i].payload);
  }
}

}  // namespace
}  // namespace lama::svc
