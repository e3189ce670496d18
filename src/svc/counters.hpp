// Request metrics for the mapping service. All counters are monotonic
// atomics updated wait-free from worker threads. Latencies are not kept
// here: every stage is timed once, by its span, into the service's
// obs::StageStats, and MappingService::metrics_snapshot() is the one place
// that reads these counters for export (STATS, METRICS, WATCH).
// Two invariants the stress and fault-injection suites pin down:
//   * for every request that consults the tree cache, exactly one of
//     cache_hits / cache_misses / coalesced is incremented — the three sum
//     to `cached` (the number of cached-path requests);
//   * `errors` is incremented exactly once per failed request, whatever the
//     failure path (parse, shed, deadline, mapping, integrity fallback that
//     then fails) — so requests == completed and errors never double-counts.
#pragma once

#include <atomic>
#include <cstdint>

namespace lama::svc {

struct Counters {
  // Request accounting.
  std::atomic<std::uint64_t> requests{0};   // accepted
  std::atomic<std::uint64_t> completed{0};  // finished, success or error
  std::atomic<std::uint64_t> errors{0};     // finished with an error

  // Tree-cache accounting (cached "lama" path only; baseline components
  // bypass the cache and appear in `uncached`).
  std::atomic<std::uint64_t> cached{0};        // requests that consulted it
  std::atomic<std::uint64_t> cache_hits{0};    // tree served from the LRU
  std::atomic<std::uint64_t> cache_misses{0};  // this request built the tree
  std::atomic<std::uint64_t> coalesced{0};     // waited on an in-flight build
  std::atomic<std::uint64_t> evictions{0};     // trees dropped by LRU policy
  std::atomic<std::uint64_t> uncached{0};      // requests that skip the cache

  // Resilience accounting (docs/resilience.md).
  std::atomic<std::uint64_t> shed{0};       // rejected with ERR busy
  std::atomic<std::uint64_t> deadlined{0};  // cancelled past their deadline
  std::atomic<std::uint64_t> integrity_failures{0};  // cached tree rejected
  std::atomic<std::uint64_t> degraded{0};   // fell back to the uncached path
  std::atomic<std::uint64_t> invalidations{0};  // trees dropped by epoch bump
  std::atomic<std::uint64_t> remaps{0};     // remap requests accepted

  // Batch accounting (docs/service.md, MAPBATCH). Jobs of a batch also
  // count individually in `requests`/`completed`/`errors` above — a batch
  // is transport framing, not a separate request class.
  std::atomic<std::uint64_t> batched{0};     // MAPBATCH requests accepted
  std::atomic<std::uint64_t> batch_jobs{0};  // jobs carried by those batches

  // Optimizer accounting (svc/opt_cache.hpp, docs/optimize.md). Every
  // OPTIMIZE request increments opt_requests and exactly one of
  // opt_hits / opt_misses; opt_candidates and opt_swaps accumulate the
  // search work performed by misses (hits add nothing — that is the point).
  std::atomic<std::uint64_t> opt_requests{0};    // OPTIMIZE requests accepted
  std::atomic<std::uint64_t> opt_hits{0};        // served from the opt cache
  std::atomic<std::uint64_t> opt_misses{0};      // this request ran the search
  std::atomic<std::uint64_t> opt_candidates{0};  // seed placements priced
  std::atomic<std::uint64_t> opt_swaps{0};       // refinement swaps applied

  // Plan-cache accounting (svc/plan_cache.hpp). A request that runs the
  // compiled kernel increments exactly one of plan_hits / plan_misses;
  // requests the cache refuses (disabled, space limit, custom iteration
  // policy) increment neither and fall back to the reference walk.
  std::atomic<std::uint64_t> plan_hits{0};    // compiled plan from the LRU
  std::atomic<std::uint64_t> plan_misses{0};  // this request compiled it
};

// Transport metrics for the epoll server (svc/event_loop.hpp). Written by
// the event-loop thread, read by STATS/METRICS from any thread, so every
// field is a relaxed atomic. The transport stages (accept, read, frame,
// dispatch, write) are timed into the service's obs::StageStats, shared by
// every shard. The soak suite pins the exactly-once pairing:
// every request that reaches a connection handler counts in exactly one of
// text_requests / binary_requests and appends exactly one response (normal
// or backpressure-shed), so requests == responses whenever the loop is
// quiescent; accepted == closed once the server has stopped.
struct NetCounters {
  std::atomic<std::uint64_t> accepted{0};   // connections accepted
  std::atomic<std::uint64_t> closed{0};     // connections closed, any cause
  std::atomic<std::uint64_t> rejected{0};   // accepts refused (connection cap)
  std::atomic<std::uint64_t> text_requests{0};    // text-framed commands
  std::atomic<std::uint64_t> binary_requests{0};  // binary frames dispatched
  std::atomic<std::uint64_t> responses{0};  // responses enqueued for write
  std::atomic<std::uint64_t> shed_backpressure{0};  // ERR busy, buffer full
  std::atomic<std::uint64_t> frame_errors{0};  // bad magic/length/CRC/verb,
                                               // or an overlong text line
  std::atomic<std::uint64_t> midstream_disconnects{0};  // peer vanished with
                                                        // a partial request
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};

  // Connections currently open (derived, never negative while quiescent).
  [[nodiscard]] std::uint64_t active() const;
};

}  // namespace lama::svc
