// Concurrency stress for the observability layer: mixed good/bad traffic,
// MAPBATCH rounds on the worker pool, and a chaos thread corrupting cached
// trees — all with tracing ON and sampling 1/1 so every request assembles
// a trace, while an observer thread concurrently reads metrics snapshots
// and flight-recorder traces (collectors racing the lock-free ring
// pushers). Pins the exactly-once invariants under load: one trace begun
// and assembled per request, one failure dump per failed or degraded
// request, and the counter identities the non-traced stress suite already
// certifies — now with the instrumentation in the loop. Run under
// LAMA_SANITIZE=thread to certify the seqlock rings and trace handoff.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_prom.hpp"
#include "obs/tracer.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

TEST(ObsStress, ExactlyOnceTracingUnderMixedFaultTraffic) {
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(2, "socket:2 core:2 pu:2"));
  ServiceConfig config;
  config.workers = 4;
  config.cache_shards = 4;
  config.shard_capacity = 2;  // churn: evict + rebuild throughout
  config.flight_recorder = 8;
  config.trace_sample = 1;  // assemble every trace: maximal collect traffic
  MappingService service(config);
  const InternedAlloc interned = service.intern(alloc);

  const std::vector<std::string> layouts = {"scbnh", "nbcsh", "hsbcn",
                                            "cbsnh"};

  constexpr int kThreads = 6;
  constexpr int kIters = 120;
  constexpr int kBatchRounds = 15;
  constexpr std::size_t kBatchJobs = 6;
  std::atomic<std::uint64_t> sent_good{0}, sent_unknown{0}, sent_oversub{0},
      sent_deadlined{0}, unexpected{0}, failed_outcomes{0};

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    SplitMix64 rng(0xC4A05);
    while (!stop.load(std::memory_order_acquire)) {
      service.corrupt_cached_trees_for_testing();
      if (rng.next_bool(0.5)) service.invalidate(interned.fingerprint);
      std::this_thread::yield();
    }
  });

  // The observer: metrics snapshots and flight-recorder reads racing the
  // writers. Nothing to assert per read beyond well-formedness — the value
  // is the data-race coverage under TSan.
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string exposition =
          service.metrics_snapshot().to_prometheus();
      EXPECT_NO_THROW(test::parse_prometheus(exposition));
      (void)service.stats_line();
      (void)service.tracer()->recorder().last();
      (void)service.tracer()->recorder().last_failure();
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
          request.spec = "nosuch";  // uncached-path failure
          sent_unknown.fetch_add(1);
          expect_ok = false;
        } else if (pick < 20) {
          request.opts.np = alloc.total_online_pus() * 2 + 1;
          request.opts.allow_oversubscribe = false;  // fails mid-walk
          sent_oversub.fetch_add(1);
          expect_ok = false;
        } else if (pick < 25) {
          request.opts.deadline_ns = 1;  // cancelled before any work
          sent_deadlined.fetch_add(1);
          expect_ok = false;
        } else {
          sent_good.fetch_add(1);
        }
        const MapResponse response = service.map(request);
        if (response.ok() != expect_ok) unexpected.fetch_add(1);
        if (response.outcome != obs::Outcome::kOk) failed_outcomes.fetch_add(1);
      }
    });
  }

  // Healthy MAPBATCH traffic on the worker pool: per-job traces parented
  // under a per-batch trace, jobs also counted as requests.
  std::uint64_t batch_job_failures = 0;
  std::thread batcher([&] {
    for (int round = 0; round < kBatchRounds; ++round) {
      std::vector<MapRequest> batch;
      for (std::size_t j = 0; j < kBatchJobs; ++j) {
        batch.push_back({interned, "lama:" + layouts[j % layouts.size()],
                         {.np = 1 + j}});
      }
      for (const MapResponse& response : service.map_batch(batch)) {
        if (!response.ok()) ++batch_job_failures;
        if (response.outcome != obs::Outcome::kOk) failed_outcomes.fetch_add(1);
      }
    }
  });

  for (auto& t : threads) t.join();
  batcher.join();
  stop.store(true, std::memory_order_release);
  chaos.join();
  observer.join();

  EXPECT_EQ(unexpected.load(), 0u);
  // Batch jobs are built to succeed; corruption can only degrade them.
  EXPECT_EQ(batch_job_failures, 0u);

  const Counters& c = service.counters();
  const std::uint64_t direct =
      static_cast<std::uint64_t>(kThreads) * kIters;
  const std::uint64_t jobs =
      static_cast<std::uint64_t>(kBatchRounds) * kBatchJobs;
  EXPECT_EQ(c.requests.load(), direct + jobs);
  EXPECT_EQ(c.completed.load(), direct + jobs);
  EXPECT_EQ(c.errors.load(), sent_unknown.load() + sent_oversub.load() +
                                 sent_deadlined.load());
  EXPECT_EQ(c.deadlined.load(), sent_deadlined.load());
  EXPECT_EQ(c.batched.load(), static_cast<std::uint64_t>(kBatchRounds));
  EXPECT_EQ(c.batch_jobs.load(), jobs);
  EXPECT_EQ(c.cache_hits.load() + c.cache_misses.load() + c.coalesced.load(),
            c.cached.load());

  // Exactly one trace begun per request plus one per batch, every one
  // assembled (sampling 1/1), and exactly one failure dump per request
  // whose outcome was not ok — whatever path the failure took. (A request
  // whose degraded fallback then fails ticks both `degraded` and `errors`
  // but has ONE outcome and ONE dump, so the counters cannot be summed;
  // the per-response outcome is the exact identity.)
  const obs::Tracer& tracer = *service.tracer();
  EXPECT_EQ(tracer.started(),
            direct + jobs + static_cast<std::uint64_t>(kBatchRounds));
  EXPECT_EQ(tracer.assembled(), tracer.started());
  // The tail gate marks otherwise-ok traces kSlow and routes them into the
  // failure window too — never a trace that already failed — so the dump
  // count is exactly failures plus tail captures.
  EXPECT_EQ(tracer.recorder().dumps(),
            failed_outcomes.load() + tracer.tail_captured());
  EXPECT_GE(tracer.recorder().dumps(), c.errors.load());
}

}  // namespace
}  // namespace lama::svc
