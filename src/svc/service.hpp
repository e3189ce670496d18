// lama::svc — the mapping service. The paper's LAMA runs once per mpirun;
// this subsystem turns it into a long-lived, concurrent query engine:
// clients intern an allocation (parsed + fingerprinted once), then submit
// mapping requests — an rmaps component spec such as "lama:scbnh", MapOptions,
// and optionally a binding policy — one at a time or in batches executed on
// a worker pool. "lama" requests go through the sharded tree cache
// (tree_cache.hpp): the maximal/pruned tree for (allocation, layout) is
// built once and every repeated query skips straight to the iteration walk.
// Every request counts into svc::Counters, and every pipeline stage it runs
// is timed into the service's obs::StageStats.
//
// Resilience (docs/resilience.md): allocations are versioned by epochs that
// invalidate cached trees when resources go off-line, requests carry
// deadlines that cancel the walk cooperatively, admission control sheds
// load with a retry hint instead of queueing unboundedly, cached trees are
// integrity-checked on every hit and fall back to a fresh uncached build
// when the check fails, and remap() re-places only the ranks a failure
// displaced (lama/remap.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/binding.hpp"
#include "lama/mapper.hpp"
#include "lama/mapping.hpp"
#include "lama/remap.hpp"
#include "lama/rmaps.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "opt/optimizer.hpp"
#include "support/numa.hpp"
#include "svc/counters.hpp"
#include "svc/opt_cache.hpp"
#include "svc/plan_cache.hpp"
#include "svc/slo.hpp"
#include "svc/tree_cache.hpp"
#include "svc/worker_pool.hpp"
#include "tmatch/comm_matrix.hpp"

namespace lama::dur {
class StateStore;
}  // namespace lama::dur

namespace lama::svc {

struct ServiceConfig {
  // Worker threads for map_batch(); 0 executes batches on the calling
  // thread (deterministic mode for tests and baselines).
  std::size_t workers = 4;
  // Shards of the tree cache (more shards = less lock contention).
  std::size_t cache_shards = 8;
  // Cached trees per shard; 0 disables caching entirely.
  std::size_t shard_capacity = 64;
  // Tasks allowed to wait for a worker before map_batch sheds the overflow
  // with ERR busy (0 = unbounded queue, never sheds).
  std::size_t max_queue = 0;
  // Requests allowed inside map()/remap() concurrently before new arrivals
  // are shed with ERR busy (0 = unlimited).
  std::size_t max_inflight = 0;
  // The retry hint attached to shed responses ("ERR busy retry-after=<ms>").
  std::uint32_t retry_after_ms = 25;
  // Deadline applied to requests that carry none (0 = no default deadline).
  std::uint32_t default_timeout_ms = 0;
  // Re-validate the integrity seal of every cache hit; failures drop the
  // entry and degrade to a fresh uncached build. One 64-bit hash of the
  // layout string per hit — leave on unless profiling says otherwise.
  bool verify_trees = true;
  // Compile cached trees into flat MapPlans (lama/map_plan.hpp) and serve
  // default-policy "lama" requests from the zero-allocation compiled kernel.
  // The plan cache shares the tree cache's sharding/capacity and keys, and
  // is invalidated with it. Off = every request runs the reference walk.
  bool compile_plans = true;
  // Largest iteration space (coordinates) a plan may enumerate; requests
  // over the limit fall back to the reference walk instead of materializing
  // a plan. 0 = unbounded.
  std::uint64_t plan_space_limit = 1u << 20;

  // NUMA placement of the cache shards (support/numa.hpp). When both are
  // set (and must then outlive the service), the tree/plan/opt caches place
  // their shard control blocks round-robin across the machine's NUMA nodes
  // so each event-loop shard's hot mutex + LRU live on local memory. Null =
  // plain operator new, identical behaviour on single-node hosts.
  support::NumaAllocator* shard_arena = nullptr;
  const support::NumaTopology* numa_topology = nullptr;

  // Observability (docs/observability.md). Stage latency histograms are
  // always on; flight_recorder > 0 adds request tracing (trace assembly
  // for TRACE, exemplars, the flight recorder) and retains that many
  // complete traces, 0 disables the tracer.
  std::size_t flight_recorder = 0;
  // Head-based sampling: assemble 1-in-N healthy traces (1 = every trace,
  // 0 = failures only). Failed requests are always assembled and dumped.
  std::uint32_t trace_sample = 64;
  // Seed perturbing which trace ids sampling picks (deterministic per seed).
  std::uint64_t trace_seed = 0;
  // Tail-triggered capture: assemble any trace slower than an adaptive p99
  // estimate even when head sampling passes it over, marking it kSlow so it
  // lands in the failure window. Only meaningful with flight_recorder > 0.
  bool trace_tail = true;
  // Durations at or below this floor never trip the tail gate — keeps
  // microsecond-scale warm-cache traffic from flooding the recorder.
  std::uint64_t trace_tail_floor_ns = 100 * 1000;
  // Per-verb latency objectives (parse_slo_spec); empty disables SLO
  // tracking entirely.
  std::vector<SloObjective> slo;
};

// An allocation interned into the service: copied, validated, and
// fingerprinted once, then shared by every request that maps onto it. The
// copy shares each node's topology tree with the caller's allocation, and
// the fingerprint combines the hashes those trees cache, so interning costs
// a reference count and a few hash combines per node. The
// epoch versions the allocation across availability changes: every
// OFFLINE/ONLINE (or node addition) bumps it, and the handle's fingerprint
// changes with the hardware, so stale trees can never serve a new epoch.
struct InternedAlloc {
  std::shared_ptr<const Allocation> alloc;
  std::uint64_t fingerprint = 0;
  std::uint64_t epoch = 0;

  [[nodiscard]] bool valid() const { return alloc != nullptr; }
};

struct MapRequest {
  InternedAlloc alloc;
  std::string spec = "lama";  // rmaps "name[:args]" component spec
  MapOptions opts;
  // When set, the binding step (§III-B) runs on the mapping and the
  // response carries the per-rank cpusets.
  std::optional<BindingPolicy> binding;
  // Per-request deadline in milliseconds, measured from admission (covers
  // queue wait). 0 falls back to ServiceConfig::default_timeout_ms; if
  // opts.deadline_ns is already set it wins.
  std::uint32_t timeout_ms = 0;
};

// A remap request: re-place `previous` (produced over an earlier epoch of
// the same allocation) onto the current, reduced allocation. Surviving
// ranks keep their placements; see lama/remap.hpp for the exact semantics.
struct RemapRequest {
  InternedAlloc alloc;  // the current (reduced) allocation
  ProcessLayout layout{std::vector<ResourceType>{ResourceType::kNode}};
  MapOptions opts;      // np must equal previous->num_procs()
  const MappingResult* previous = nullptr;
  std::uint32_t timeout_ms = 0;
};

// An OPTIMIZE request (docs/optimize.md): search the placement space for
// `matrix.np()` processes on the interned allocation, minimizing modeled
// communication cost. Results are cached under (allocation fingerprint,
// matrix digest, budget) beside the tree and plan caches.
struct OptimizeRequest {
  InternedAlloc alloc;
  std::shared_ptr<const CommMatrix> matrix;
  opt::OptBudget budget;
  // Per-request deadline in milliseconds, measured from admission; 0 falls
  // back to ServiceConfig::default_timeout_ms.
  std::uint32_t timeout_ms = 0;
  // When nonzero (and the service has workers), seed candidates are priced
  // concurrently on the worker pool. The optimized placement is identical
  // at any thread count — parallelism changes latency, never the answer.
  std::size_t threads = 0;
};

struct OptimizeResponse {
  // The (possibly cached) optimization result; null when the request failed.
  std::shared_ptr<const opt::OptimizeResult> result;
  bool cache_hit = false;   // served from the opt cache
  bool busy = false;        // shed by admission control
  std::uint32_t retry_after_ms = 0;
  std::string error;        // non-empty when the request failed
  obs::Outcome outcome = obs::Outcome::kOk;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct MapResponse {
  MappingResult mapping;
  std::optional<BindingResult> binding;
  bool cache_hit = false;   // tree came straight from the LRU
  bool coalesced = false;   // tree came from another request's build
  bool busy = false;        // shed by admission control; retry after hint
  bool degraded = false;    // cached tree failed integrity; mapped uncached
  std::uint32_t retry_after_ms = 0;  // backoff hint when busy
  std::string error;        // non-empty when the request failed
  // How the request ended, for tracing: mirrors the flags above (busy ->
  // kShed, deadline -> kDeadlined, ...) so callers that began the trace
  // (the protocol layer) can close it with the right outcome.
  obs::Outcome outcome = obs::Outcome::kOk;

  // Remap responses only: ranks that moved, and how many stayed put.
  std::vector<int> displaced;
  std::size_t surviving = 0;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

class MappingService {
 public:
  explicit MappingService(ServiceConfig config = {});

  // Interns a deep copy of `alloc` under the given epoch. Throws
  // MappingError when the allocation cannot run anything
  // (Allocation::validate).
  InternedAlloc intern(const Allocation& alloc, std::uint64_t epoch = 0);
  // Interns from the wire form (cluster/alloc_serialize.hpp).
  InternedAlloc intern_serialized(const std::string& text,
                                  std::uint64_t epoch = 0);

  // Maps one request. Thread-safe: any number of callers may be in flight;
  // failures are reported in MapResponse::error, never thrown.
  MapResponse map(const MapRequest& request);

  // Remaps a previous mapping onto the (reduced) current allocation.
  // Same failure contract as map(); the response carries `displaced`.
  MapResponse remap(const RemapRequest& request);

  // Optimizes a placement against a communication matrix (opt/optimizer.hpp)
  // with the same failure contract as map(): errors land in the response,
  // never thrown. Served from the opt cache on repeat (fingerprint, digest,
  // budget) keys; a miss runs the search (under an `optimize` trace span)
  // and populates the cache.
  OptimizeResponse optimize(const OptimizeRequest& request);

  // Maps a batch concurrently on the worker pool (or inline when the pool
  // has no threads). Responses are in request order; requests the bounded
  // queue refuses come back as busy responses without executing.
  std::vector<MapResponse> map_batch(const std::vector<MapRequest>& requests);

  // Drops every cached tree AND compiled plan built over this fingerprint —
  // called when an allocation's epoch is bumped by an availability change,
  // so the capacity the stale entries occupy is reclaimed immediately rather
  // than aging out. Returns the number of trees dropped (plans leave with
  // them but are not separately counted).
  std::size_t invalidate(std::uint64_t fingerprint);

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  // Trees currently cached (for tests/observability).
  [[nodiscard]] std::size_t cached_trees() const { return cache_.size(); }
  // Compiled plans currently cached (for tests/observability).
  [[nodiscard]] std::size_t cached_plans() const { return plan_cache_.size(); }
  // Optimization results currently cached (for tests/observability).
  [[nodiscard]] std::size_t cached_opts() const { return opt_cache_.size(); }

  // Per-verb SLO accounting (svc/slo.hpp); disabled (and empty) unless
  // ServiceConfig::slo names objectives.
  [[nodiscard]] const SloTracker& slo() const { return slo_; }

  // The request tracer, or nullptr when ServiceConfig::flight_recorder is 0.
  // The protocol layer begins/ends traces through this; direct API callers
  // get traces implicitly (map()/remap() begin one when none is active).
  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] const obs::Tracer* tracer() const { return tracer_.get(); }

  // Per-stage latency histograms, fed by every span of every request
  // whether or not a tracer exists: each request scope (obs::TraceScope)
  // installs them as the thread's span sink, and the event loop installs
  // them for its transport stages.
  [[nodiscard]] obs::StageStats& stage_stats() { return stage_stats_; }

  // Seconds since construction (monotonic).
  [[nodiscard]] double uptime_s() const;

  // One snapshot of every exported metric — counters, service gauges
  // (uptime, cached trees, inflight), tracer counters, the per-stage
  // latency histograms, and the per-layout / per-allocation labeled series.
  // Every stats surface renders from this: the Prometheus text and JSON
  // expositions, and the STATS line.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

  // The STATS wire line, rendered from metrics_snapshot() through one
  // ordered key table: request counters, stage quantiles in µs (three
  // decimals), service keys, then — when present — durability, transport,
  // and per-verb SLO keys. Consumers parse by prefix, so new keys only ever
  // append.
  [[nodiscard]] std::string stats_line() const;

  // Component registry used for dispatch. Register custom components before
  // serving traffic: registration is not synchronized against map().
  [[nodiscard]] RmapsRegistry& registry() { return registry_; }

  // Durability (docs/resilience.md): the store is owned by the caller and
  // written by the protocol layer; attaching it here exposes the dur_*
  // counters through STATS/METRICS and journal lag through HEALTH. Attach
  // before serving traffic — the pointer is not synchronized against
  // concurrent requests.
  void attach_durability(dur::StateStore* store) { durability_ = store; }
  [[nodiscard]] dur::StateStore* durability() const { return durability_; }

  // Transport metrics (svc/event_loop.hpp): attaching a server's counters
  // exposes the lama_net_* series and the net_* STATS keys. A sharded
  // server attaches one NetCounters per shard; STATS/METRICS aggregate
  // across them and (with more than one shard) additionally export the
  // per-shard split. Attachment is mutex-guarded so servers may come and go
  // while STATS readers run, but the usual lifecycle is still
  // attach-before-traffic.
  void attach_net(const NetCounters* net);
  void detach_net(const NetCounters* net);
  [[nodiscard]] std::size_t net_shards() const;

  // Graceful drain: once begun, map/remap/optimize admission sheds every
  // new arrival with the busy retry-after reply while in-flight requests
  // finish; reads (STATS/METRICS/HEALTH/TRACE) keep serving. There is no
  // undrain — the process is on its way out.
  void begin_drain() { draining_.store(true, std::memory_order_release); }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // Fault injection: invoked (when set) at the start of every request on
  // the executing thread — the injector's hook for worker stalls. Swap-safe
  // while requests are in flight.
  void set_fault_hook(std::function<void()> hook);

  // Fault injection: corrupts the integrity seal of cached trees (all when
  // fingerprint is 0) so subsequent hits exercise the degraded path.
  std::size_t corrupt_cached_trees_for_testing(std::uint64_t fingerprint = 0);

 private:
  MapResponse map_uncaught(const MapRequest& request,
                           std::uint64_t deadline_ns);
  // The timed reference walk (lama_map) of the lama path, against a cached
  // tree when `tree` is non-null.
  MappingResult run_lama_walk(const Allocation& alloc,
                              const ProcessLayout& layout,
                              const MapOptions& opts, const MaximalTree* tree);
  // The timed compiled-kernel walk: replays `plan` through the worker
  // thread's reused PlanExecutor. `alloc` must be the allocation of the tree
  // the plan was compiled from.
  MappingResult run_compiled_walk(const Allocation& alloc,
                                  const MapOptions& opts, const MapPlan& plan);
  MapResponse run_counted(const char* verb, std::uint32_t timeout_ms,
                          const std::function<MapResponse(std::uint64_t)>& fn);
  MapResponse shed_response();
  void run_fault_hook();

  ServiceConfig config_;
  RmapsRegistry registry_;
  Counters counters_;
  ShardedTreeCache cache_;
  PlanCache plan_cache_;
  OptCache opt_cache_;
  WorkerPool pool_;
  SloTracker slo_;
  obs::StageStats stage_stats_;
  std::unique_ptr<obs::Tracer> tracer_;  // null when tracing is disabled
  obs::LabeledCounter layout_series_;    // requests per layout / spec
  obs::LabeledCounter alloc_series_;     // requests per alloc fingerprint
  std::uint64_t start_ns_ = 0;           // monotonic, for uptime_s()

  dur::StateStore* durability_ = nullptr;
  mutable std::mutex net_mu_;
  std::vector<const NetCounters*> net_;  // one per attached server shard
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<bool> has_fault_hook_{false};
  std::mutex fault_hook_mu_;
  std::function<void()> fault_hook_;
};

}  // namespace lama::svc
