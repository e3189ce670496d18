#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>

#include "cluster/alloc_serialize.hpp"
#include "dur/state_store.hpp"
#include "lama/map_plan.hpp"
#include "obs/clock.hpp"
#include "support/error.hpp"

namespace lama::svc {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void throw_if_past(std::uint64_t deadline_ns, const char* stage) {
  if (deadline_ns != 0 && now_ns() >= deadline_ns) {
    throw CancelledError(std::string("request deadline exceeded before ") +
                         stage);
  }
}

}  // namespace

MappingService::MappingService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_shards, config.shard_capacity, counters_,
             config.shard_arena, config.numa_topology),
      plan_cache_(config.cache_shards,
                  config.compile_plans ? config.shard_capacity : 0,
                  config.plan_space_limit, counters_, config.shard_arena,
                  config.numa_topology),
      opt_cache_(config.cache_shards, config.shard_capacity,
                 config.shard_arena, config.numa_topology),
      pool_(config.workers, config.max_queue),
      slo_(config.slo),
      start_ns_(obs::monotonic_ns()) {
  if (config_.flight_recorder > 0) {
    obs::TracerConfig tc;
    tc.flight_capacity = config_.flight_recorder;
    tc.sample_every = config_.trace_sample;
    tc.seed = config_.trace_seed;
    tc.tail_capture = config_.trace_tail;
    tc.tail_floor_ns = config_.trace_tail_floor_ns;
    tracer_ = std::make_unique<obs::Tracer>(tc);
  }
}

InternedAlloc MappingService::intern(const Allocation& alloc,
                                     std::uint64_t epoch) {
  alloc.validate();
  auto copy = std::make_shared<const Allocation>(alloc);
  return InternedAlloc{copy, allocation_fingerprint(*copy), epoch};
}

InternedAlloc MappingService::intern_serialized(const std::string& text,
                                                std::uint64_t epoch) {
  return intern(parse_allocation(text), epoch);
}

void MappingService::set_fault_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(fault_hook_mu_);
  fault_hook_ = std::move(hook);
  has_fault_hook_.store(fault_hook_ != nullptr, std::memory_order_release);
}

void MappingService::run_fault_hook() {
  if (!has_fault_hook_.load(std::memory_order_acquire)) return;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(fault_hook_mu_);
    hook = fault_hook_;
  }
  if (hook) hook();
}

std::size_t MappingService::invalidate(std::uint64_t fingerprint) {
  // Plans embed (and co-own) trees built over the stale epoch; they must
  // leave with them, or a plan hit would keep mapping onto retired hardware.
  plan_cache_.invalidate_alloc(fingerprint);
  // Optimization results place onto the stale epoch's PUs; same rule.
  opt_cache_.invalidate_alloc(fingerprint);
  return cache_.invalidate_alloc(fingerprint);
}

std::size_t MappingService::corrupt_cached_trees_for_testing(
    std::uint64_t fingerprint) {
  return cache_.corrupt_for_testing(fingerprint);
}

MapResponse MappingService::shed_response() {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  counters_.shed.fetch_add(1, std::memory_order_relaxed);
  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  counters_.completed.fetch_add(1, std::memory_order_relaxed);
  MapResponse response;
  response.busy = true;
  response.retry_after_ms = config_.retry_after_ms;
  response.error = "busy";
  response.outcome = obs::Outcome::kShed;
  return response;
}

// Shared request wrapper: admission control, deadline resolution, the
// exactly-once error/completed accounting, and end-to-end timing. `fn` runs
// the actual work and receives the resolved deadline.
MapResponse MappingService::run_counted(
    const char* verb, std::uint32_t timeout_ms,
    const std::function<MapResponse(std::uint64_t)>& fn) {
  // Opens the request scope only when none is open on this thread: the
  // protocol layer's TraceScope (which also covers parse/reply) wins when
  // present.
  obs::TraceScope trace_scope(&stage_stats_, tracer_.get());
  // A draining service sheds every new arrival with the retry hint: clients
  // back off and find the restarted process, in-flight work still finishes.
  if (draining()) {
    trace_scope.set_outcome(obs::Outcome::kShed);
    slo_.record(verb, 0, false);
    return shed_response();
  }
  if (config_.max_inflight > 0) {
    const std::size_t prev =
        inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (prev >= config_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      trace_scope.set_outcome(obs::Outcome::kShed);
      slo_.record(verb, 0, false);
      return shed_response();
    }
  } else {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
  }

  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const std::uint32_t effective_ms =
      timeout_ms != 0 ? timeout_ms : config_.default_timeout_ms;
  const std::uint64_t deadline_ns =
      effective_ms != 0
          ? now_ns() + static_cast<std::uint64_t>(effective_ms) * 1'000'000
          : 0;

  MapResponse response;
  obs::Outcome outcome = obs::Outcome::kOk;
  try {
    run_fault_hook();
    response = fn(deadline_ns);
    if (response.degraded) outcome = obs::Outcome::kDegraded;
  } catch (const CancelledError& e) {
    counters_.deadlined.fetch_add(1, std::memory_order_relaxed);
    response.error = e.what();
    outcome = obs::Outcome::kDeadlined;
  } catch (const Error& e) {
    response.error = e.what();
    outcome = obs::Outcome::kError;
  } catch (const std::exception& e) {
    // Never let an unexpected exception skip the accounting (or tear down a
    // worker thread): a failed request is a failed request.
    response.error = std::string("unexpected error: ") + e.what();
    outcome = obs::Outcome::kError;
  }
  if (!response.ok()) {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    if (outcome == obs::Outcome::kOk) outcome = obs::Outcome::kError;
  }
  response.outcome = outcome;
  trace_scope.set_outcome(outcome);
  counters_.completed.fetch_add(1, std::memory_order_relaxed);
  slo_.record(verb, elapsed_ns(start), response.ok());
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return response;
}

MapResponse MappingService::map(const MapRequest& request) {
  return run_counted("query", request.timeout_ms,
                     [&](std::uint64_t deadline_ns) {
                       return map_uncaught(request, deadline_ns);
                     });
}

MappingResult MappingService::run_lama_walk(const Allocation& alloc,
                                            const ProcessLayout& layout,
                                            const MapOptions& opts,
                                            const MaximalTree* tree) {
  const obs::SpanScope map_span(obs::Stage::kMap);
  return tree != nullptr ? lama_map(alloc, layout, opts, *tree)
                         : lama_map(alloc, layout, opts);
}

MappingResult MappingService::run_compiled_walk(const Allocation& alloc,
                                                const MapOptions& opts,
                                                const MapPlan& plan) {
  // map_walk covers every lama walk, reference or compiled; plan_exec only
  // the compiled ones.
  const obs::SpanScope map_span(obs::Stage::kMap);
  const obs::SpanScope exec_span(obs::Stage::kPlanExec);
  // One executor per worker thread: its dense arenas stay sized for the
  // plans that thread replays, so steady-state walks allocate nothing
  // inside the executor.
  thread_local PlanExecutor executor;
  MappingResult mapping;
  lama_map_compiled(alloc, opts, plan, executor, mapping);
  return mapping;
}

MapResponse MappingService::map_uncaught(const MapRequest& request,
                                         std::uint64_t deadline_ns) {
  if (!request.alloc.valid()) {
    throw MappingError("request carries no interned allocation");
  }
  const Allocation& client_alloc = *request.alloc.alloc;
  const auto [name, args] = split_rmaps_spec(request.spec);

  {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(request.alloc.fingerprint));
    alloc_series_.increment(fp);
  }

  MapOptions opts = request.opts;
  if (opts.deadline_ns == 0) opts.deadline_ns = deadline_ns;
  throw_if_past(opts.deadline_ns, "mapping started");

  MapResponse response;
  // The allocation the mapping ran against: the cached tree's private copy
  // on the cached path (its pruned trees point into that copy), otherwise
  // the client's interned allocation. Binding must use the same one.
  const Allocation* mapped_alloc = &client_alloc;
  std::shared_ptr<const CachedTree> cached;  // keeps the tree alive

  if (name == "lama") {
    // Cached fast path: resolve the spec to a canonical layout exactly as
    // the registry's lama component would, then reuse the shared tree.
    const ProcessLayout layout =
        ProcessLayout::parse(args.empty() ? kLamaDefaultLayout : args);
    const TreeKey key{request.alloc.fingerprint, layout.to_string()};
    layout_series_.increment(key.layout);
    counters_.cached.fetch_add(1, std::memory_order_relaxed);
    ShardedTreeCache::Lookup lookup =
        cache_.get_or_build(key, client_alloc, layout);
    cached = std::move(lookup.tree);
    response.cache_hit = lookup.hit;
    response.coalesced = lookup.coalesced;

    if (config_.verify_trees && lookup.hit && !cached->verify(key)) {
      // Integrity re-validation failed: never map from a tree whose seal
      // does not match its key. Drop it and degrade to the uncached path —
      // a fresh tree built from the client's own allocation.
      counters_.integrity_failures.fetch_add(1, std::memory_order_relaxed);
      counters_.degraded.fetch_add(1, std::memory_order_relaxed);
      cache_.erase(key);
      // Any compiled plan shares the rejected tree (or an equally stale
      // sibling under this key) — drop it with the tree, never execute it.
      plan_cache_.erase(key);
      cached.reset();
      response.cache_hit = false;
      response.degraded = true;
      response.mapping = run_lama_walk(client_alloc, layout, opts, nullptr);
    } else {
      mapped_alloc = &cached->alloc();
      throw_if_past(opts.deadline_ns, "the mapping walk");
      // Compiled fast path: serve default-policy requests from a cached
      // MapPlan. The plan embeds (and co-owns) the tree it was compiled
      // from; mapping and binding must run against that tree's allocation —
      // a deep copy content-identical to `cached`'s under the same key.
      std::shared_ptr<const CachedPlan> plan;
      if (config_.compile_plans && config_.shard_capacity > 0 &&
          opts.iteration.is_default()) {
        plan = plan_cache_
                   .get_or_compile(key, cached, config_.verify_trees)
                   .plan;
      }
      if (plan != nullptr) {
        mapped_alloc = &plan->tree()->alloc();
        response.mapping =
            run_compiled_walk(plan->tree()->alloc(), opts, plan->plan());
      } else {
        response.mapping = run_lama_walk(cached->alloc(), cached->layout(),
                                         opts, &cached->tree());
      }
    }
  } else {
    layout_series_.increment(name);
    counters_.uncached.fetch_add(1, std::memory_order_relaxed);
    const obs::SpanScope map_span(obs::Stage::kMap, 0);
    response.mapping = registry_.map(request.spec, client_alloc, opts);
  }

  if (request.binding.has_value()) {
    throw_if_past(opts.deadline_ns, "the binding step");
    const obs::SpanScope bind_span(obs::Stage::kBind);
    response.binding =
        bind_processes(*mapped_alloc, response.mapping, *request.binding);
  }
  return response;
}

MapResponse MappingService::remap(const RemapRequest& request) {
  return run_counted("remap", request.timeout_ms,
                     [&](std::uint64_t deadline_ns) {
    if (!request.alloc.valid()) {
      throw MappingError("remap carries no interned allocation");
    }
    if (request.previous == nullptr) {
      throw MappingError("remap carries no previous mapping");
    }
    counters_.remaps.fetch_add(1, std::memory_order_relaxed);
    MapOptions opts = request.opts;
    if (opts.deadline_ns == 0) opts.deadline_ns = deadline_ns;
    throw_if_past(opts.deadline_ns, "remap started");

    const obs::SpanScope map_span(obs::Stage::kMap);
    RemapResult remapped = lama_remap(*request.alloc.alloc, request.layout,
                                      opts, *request.previous);

    MapResponse response;
    response.mapping = std::move(remapped.mapping);
    response.displaced = std::move(remapped.displaced);
    response.surviving = remapped.surviving;
    response.degraded = remapped.degraded_shared;
    return response;
  });
}

OptimizeResponse MappingService::optimize(const OptimizeRequest& request) {
  OptimizeResponse out;
  // run_counted supplies the shared admission/deadline/accounting wrapper;
  // the optimize-specific payload travels through `out`, captured alongside.
  const MapResponse counted =
      run_counted("optimize", request.timeout_ms,
                  [&](std::uint64_t deadline_ns) {
        if (!request.alloc.valid()) {
          throw MappingError("optimize carries no interned allocation");
        }
        if (request.matrix == nullptr) {
          throw MappingError("optimize carries no communication matrix");
        }
        counters_.opt_requests.fetch_add(1, std::memory_order_relaxed);
        const OptKey key{request.alloc.fingerprint, request.matrix->digest(),
                         request.budget.key()};
        if (auto cached = opt_cache_.get(key)) {
          counters_.opt_hits.fetch_add(1, std::memory_order_relaxed);
          out.result = std::move(cached);
          out.cache_hit = true;
          return MapResponse{};
        }
        counters_.opt_misses.fetch_add(1, std::memory_order_relaxed);

        opt::OptBudget budget = request.budget;
        if (budget.deadline_ns == 0) budget.deadline_ns = deadline_ns;
        throw_if_past(budget.deadline_ns, "the placement search");

        // Candidate pricing runs on the worker pool when asked (and the
        // pool exists); per-index result slots keep the winner independent
        // of scheduling, so thread count never changes the placement. The
        // request's trace context is handed to the workers so their
        // opt_candidate spans land in this request's trace.
        opt::Parallel parallel;
        if (request.threads > 0 && pool_.num_threads() > 0) {
          parallel = [this](std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
            const obs::TraceHandle trace_ctx = obs::current_trace();
            std::vector<std::future<void>> pending;
            pending.reserve(count);
            for (std::size_t i = 0; i < count; ++i) {
              pending.push_back(pool_.async([&fn, trace_ctx, i] {
                const obs::ScopedTrace scoped(trace_ctx);
                const obs::SpanScope span(obs::Stage::kOptCandidate,
                                          static_cast<std::uint32_t>(i));
                fn(i);
              }));
            }
            for (auto& f : pending) f.get();
          };
        }

        const obs::SpanScope opt_span(obs::Stage::kOptimize);
        static const DistanceModel kModel = DistanceModel::commodity();
        opt::OptimizeResult result = optimize_placement(
            *request.alloc.alloc, *request.matrix, budget, kModel, parallel);
        counters_.opt_candidates.fetch_add(result.candidates_evaluated,
                                           std::memory_order_relaxed);
        counters_.opt_swaps.fetch_add(result.refine_swaps,
                                      std::memory_order_relaxed);

        auto shared =
            std::make_shared<const opt::OptimizeResult>(std::move(result));
        opt_cache_.put(key, shared);
        out.result = std::move(shared);
        return MapResponse{};
      });
  out.busy = counted.busy;
  out.retry_after_ms = counted.retry_after_ms;
  out.error = counted.error;
  out.outcome = counted.outcome;
  return out;
}

std::vector<MapResponse> MappingService::map_batch(
    const std::vector<MapRequest>& requests) {
  // The batch itself is traced (stage `batch`); every job runs under its own
  // request scope carrying the batch's trace id as parent. The batch scope
  // opens only when the protocol layer did not already open one for this
  // MAPBATCH line.
  obs::TraceScope batch_scope(&stage_stats_, tracer_.get());
  const std::uint64_t batch_id = obs::current_trace_id();
  const obs::SpanScope batch_span(obs::Stage::kBatch,
                                  static_cast<std::uint32_t>(requests.size()));
  const auto batch_start = std::chrono::steady_clock::now();
  counters_.batched.fetch_add(1, std::memory_order_relaxed);
  counters_.batch_jobs.fetch_add(requests.size(), std::memory_order_relaxed);
  std::vector<MapResponse> responses(requests.size());
  if (pool_.num_threads() == 0) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      // Suspend the batch trace so each inline job begins one of its own
      // (parented to the batch), exactly like the pool path below.
      const obs::ScopedTrace suspend{obs::TraceHandle{}};
      const obs::ScopedParent parent(batch_id);
      responses[i] = map(requests[i]);
    }
  } else {
    // Deadlines are resolved at admission, not at execution: a request whose
    // budget expires while queued is cancelled by the first deadline poll.
    std::vector<std::optional<std::future<MapResponse>>> pending;
    pending.reserve(requests.size());
    for (const MapRequest& request : requests) {
      MapRequest admitted = request;
      const std::uint32_t effective_ms = admitted.timeout_ms != 0
                                             ? admitted.timeout_ms
                                             : config_.default_timeout_ms;
      if (admitted.opts.deadline_ns == 0 && effective_ms != 0) {
        admitted.opts.deadline_ns =
            now_ns() + static_cast<std::uint64_t>(effective_ms) * 1'000'000;
      }
      pending.push_back(
          pool_.try_async([this, batch_id, admitted = std::move(admitted)] {
            const obs::ScopedParent parent(batch_id);
            return map(admitted);
          }));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      // A refused slot (bounded queue full) sheds with the busy response —
      // scoped like any other shed so the failure is never invisible.
      if (pending[i].has_value()) {
        responses[i] = pending[i]->get();
      } else {
        const obs::ScopedTrace suspend{obs::TraceHandle{}};
        const obs::ScopedParent parent(batch_id);
        obs::TraceScope shed_scope(&stage_stats_, tracer_.get());
        shed_scope.set_outcome(obs::Outcome::kShed);
        responses[i] = shed_response();
      }
    }
  }
  bool any_failed = false;
  for (const MapResponse& response : responses) {
    if (!response.ok()) any_failed = true;
  }
  // The batch counts as one SLO event: good only when every job succeeded
  // and the whole batch landed inside the mapbatch objective.
  slo_.record("mapbatch", elapsed_ns(batch_start), !any_failed);
  batch_scope.set_outcome(any_failed ? obs::Outcome::kError
                                     : obs::Outcome::kOk);
  return responses;
}

double MappingService::uptime_s() const {
  return static_cast<double>(obs::monotonic_ns() - start_ns_) / 1e9;
}

namespace {

// Renders the per-stage histograms as one real Prometheus histogram family
// labeled by stage: cumulative `le` buckets (each bucket's inclusive upper
// bound in ns) with OpenMetrics exemplars carrying the trace id of the
// slowest recent sample in that bucket, plus _sum/_count. Stages that never
// recorded are omitted to keep the exposition lean.
void add_stage_histograms(obs::MetricsSnapshot& snap,
                          const obs::StageStats& stats) {
  obs::MetricFamily& family =
      snap.add("lama_stage_latency_ns", "Per-stage span latency (ns)",
               "histogram");
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const LatencyHistogram::Snapshot snapshot =
        stats.histogram(stage).snapshot();
    if (snapshot.count == 0) continue;
    const std::string name = obs::stage_name(stage);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (snapshot.buckets[i] == 0) continue;
      cumulative += snapshot.buckets[i];
      obs::MetricSample sample{
          "_bucket",
          {{"stage", name},
           {"le", std::to_string(
                      LatencyHistogram::Snapshot::bucket_bound_ns(i))}},
          static_cast<double>(cumulative)};
      const obs::StageStats::Exemplar ex = stats.exemplar(stage, i);
      if (ex.trace_id != 0) {
        char trace[32];
        std::snprintf(trace, sizeof(trace), "%016llx",
                      static_cast<unsigned long long>(ex.trace_id));
        sample.exemplar_trace = trace;
        sample.exemplar_value = static_cast<double>(ex.ns);
      }
      family.samples.push_back(std::move(sample));
    }
    family.samples.push_back({"_bucket",
                              {{"stage", name}, {"le", "+Inf"}},
                              static_cast<double>(snapshot.count)});
    family.samples.push_back(
        {"_sum", {{"stage", name}}, static_cast<double>(snapshot.sum_ns)});
    family.samples.push_back(
        {"_count", {{"stage", name}}, static_cast<double>(snapshot.count)});
  }
}

// How a STATS key renders its value from the metrics snapshot.
enum class StatsValue : std::uint8_t {
  kCount,    // a single-sample family, as an integer
  kFixed,    // a single-sample family, with three decimals
  kStageUs,  // a quantile of one lama_stage_latency_ns stage, µs with
             // three decimals (ns resolution); 0.000 before it first runs
  kCsv,      // every sample of a shard-labeled family, comma-separated
};

struct StatsKey {
  const char* key;
  const char* source;  // the family; the stage for kStageUs
  StatsValue value = StatsValue::kCount;
  double quantile = 0.0;  // kStageUs only
};

constexpr StatsKey kServiceKeys[] = {
    {"requests", "lama_requests_total"},
    {"completed", "lama_completed_total"},
    {"errors", "lama_errors_total"},
    {"hits", "lama_cache_hits_total"},
    {"misses", "lama_cache_misses_total"},
    {"coalesced", "lama_coalesced_total"},
    {"evictions", "lama_evictions_total"},
    {"uncached", "lama_uncached_total"},
    {"cached", "lama_cached_total"},
    {"shed", "lama_shed_total"},
    {"deadlined", "lama_deadlined_total"},
    {"integrity_failures", "lama_integrity_failures_total"},
    {"degraded", "lama_degraded_total"},
    {"invalidations", "lama_invalidations_total"},
    {"remaps", "lama_remaps_total"},
    {"batched", "lama_batched_total"},
    {"batch_jobs", "lama_batch_jobs_total"},
    {"map_p50_us", "map_walk", StatsValue::kStageUs, 0.5},
    {"map_p99_us", "map_walk", StatsValue::kStageUs, 0.99},
    {"build_p99_us", "tree_build", StatsValue::kStageUs, 0.99},
    {"total_p99_us", "request", StatsValue::kStageUs, 0.99},
    {"lookup_p50_us", "cache_lookup", StatsValue::kStageUs, 0.5},
    {"lookup_p99_us", "cache_lookup", StatsValue::kStageUs, 0.99},
    {"plan_hits", "lama_plan_cache_hits_total"},
    {"plan_misses", "lama_plan_cache_misses_total"},
    {"plan_compile_p99_us", "plan_compile", StatsValue::kStageUs, 0.99},
    {"compiled_map_p50_us", "plan_exec", StatsValue::kStageUs, 0.5},
    {"compiled_map_p99_us", "plan_exec", StatsValue::kStageUs, 0.99},
    {"opt_requests", "lama_opt_requests_total"},
    {"opt_hits", "lama_opt_hits_total"},
    {"opt_misses", "lama_opt_misses_total"},
    {"opt_candidates", "lama_opt_candidates_total"},
    {"opt_swaps", "lama_opt_swaps_total"},
    {"opt_p99_us", "optimize", StatsValue::kStageUs, 0.99},
    {"uptime_s", "lama_uptime_seconds", StatsValue::kFixed},
    {"cache_trees", "lama_cache_trees"},
    {"cache_plans", "lama_cache_plans"},
    {"cache_opts", "lama_cache_opts"},
    {"traces_started", "lama_traces_started_total"},
    {"traces_assembled", "lama_traces_assembled_total"},
    {"trace_dumps", "lama_trace_dumps_total"},
    {"traces_tail", "lama_traces_tail_total"},
};

constexpr StatsKey kDurKeys[] = {
    {"dur_records", "lama_dur_journal_records_total"},
    {"dur_lag", "lama_dur_journal_lag"},
    {"dur_fsyncs", "lama_dur_journal_fsyncs_total"},
    {"dur_errors", "lama_dur_journal_errors_total"},
    {"dur_snapshots", "lama_dur_snapshots_total"},
    {"dur_recovered", "lama_dur_recovered_records_total"},
    {"dur_torn", "lama_dur_torn_tails_total"},
    {"dur_seq", "lama_dur_snapshot_seq"},
};

constexpr StatsKey kNetKeys[] = {
    {"net_accepted", "lama_net_accepted_total"},
    {"net_closed", "lama_net_closed_total"},
    {"net_active", "lama_net_active_connections"},
    {"net_rejected", "lama_net_rejected_total"},
    {"net_text_requests", "lama_net_text_requests_total"},
    {"net_binary_requests", "lama_net_binary_requests_total"},
    {"net_responses", "lama_net_responses_total"},
    {"net_shed", "lama_net_shed_total"},
    {"net_frame_errors", "lama_net_frame_errors_total"},
    {"net_disconnects", "lama_net_disconnects_total"},
    {"net_bytes_in", "lama_net_bytes_in_total"},
    {"net_bytes_out", "lama_net_bytes_out_total"},
    {"net_dispatch_p99_us", "dispatch", StatsValue::kStageUs, 0.99},
};

constexpr StatsKey kShardKeys[] = {
    {"net_shards", "lama_net_shards"},
    {"net_shard_requests", "lama_net_shard_requests_total", StatsValue::kCsv},
    {"net_shard_conns", "lama_net_shard_active_connections",
     StatsValue::kCsv},
};

// The STATS line in wire order. Consumers parse by prefix, so keys only
// ever append. A group prints only when its gate family is exported: the
// dur_* keys with a state store attached, the net_* keys with an event-loop
// server, the per-shard split with more than one shard. The per-verb SLO
// keys follow, one group per configured verb.
struct StatsGroup {
  const char* gate;
  std::span<const StatsKey> keys;
};

constexpr StatsGroup kStatsGroups[] = {
    {"lama_requests_total", kServiceKeys},
    {"lama_dur_journal_records_total", kDurKeys},
    {"lama_net_accepted_total", kNetKeys},
    {"lama_net_shard_requests_total", kShardKeys},
};

std::string format_count(double value) {
  return std::to_string(static_cast<unsigned long long>(value));
}

std::string format_fixed3(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

std::string stats_line_of(const obs::MetricsSnapshot& snap) {
  std::unordered_map<std::string_view, const obs::MetricFamily*> families;
  for (const obs::MetricFamily& family : snap.families) {
    families.emplace(family.name, &family);
  }
  const auto find = [&families](std::string_view name) {
    const auto it = families.find(name);
    return it == families.end() ? nullptr : it->second;
  };
  // Each stage's cumulative buckets; add_stage_histograms labels every
  // bucket (stage, le) in that order.
  std::unordered_map<std::string_view, std::vector<std::pair<double, double>>>
      stages;
  for (const obs::MetricSample& sample :
       find("lama_stage_latency_ns")->samples) {
    if (sample.suffix != "_bucket") continue;
    const std::string& le = sample.labels[1].second;
    stages[sample.labels[0].second].emplace_back(
        le == "+Inf" ? std::numeric_limits<double>::infinity()
                     : std::strtod(le.c_str(), nullptr),
        sample.value);
  }

  std::string line;
  const auto append = [&line](std::string_view key, const std::string& value) {
    if (!line.empty()) line += ' ';
    line += key;
    line += '=';
    line += value;
  };
  for (const StatsGroup& group : kStatsGroups) {
    if (find(group.gate) == nullptr) continue;
    for (const StatsKey& k : group.keys) {
      switch (k.value) {
        case StatsValue::kCount:
          append(k.key, format_count(find(k.source)->samples[0].value));
          break;
        case StatsValue::kFixed:
          append(k.key, format_fixed3(find(k.source)->samples[0].value));
          break;
        case StatsValue::kStageUs:
          append(k.key,
                 format_fixed3(obs::bucket_quantile(stages[k.source],
                                                    k.quantile) /
                               1000.0));
          break;
        case StatsValue::kCsv: {
          std::string csv;
          for (const obs::MetricSample& sample : find(k.source)->samples) {
            if (!csv.empty()) csv += ',';
            csv += format_count(sample.value);
          }
          append(k.key, csv);
          break;
        }
      }
    }
  }
  // metrics_snapshot pushes one good and one bad sample per verb, and the
  // verb's fast then slow burn rate, in the tracker's verb order.
  if (const obs::MetricFamily* good = find("lama_slo_good_total")) {
    const obs::MetricFamily& bad = *find("lama_slo_bad_total");
    const obs::MetricFamily& burn = *find("lama_slo_burn_rate");
    for (std::size_t i = 0; i < good->samples.size(); ++i) {
      const std::string prefix = "slo_" + good->samples[i].labels[0].second;
      append(prefix + "_good", format_count(good->samples[i].value));
      append(prefix + "_bad", format_count(bad.samples[i].value));
      append(prefix + "_fast_burn", format_fixed3(burn.samples[2 * i].value));
      append(prefix + "_slow_burn",
             format_fixed3(burn.samples[2 * i + 1].value));
    }
  }
  return line;
}

}  // namespace

obs::MetricsSnapshot MappingService::metrics_snapshot() const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed));
  };
  obs::MetricsSnapshot snap;

  // Request counters, names matching the STATS keys with a lama_ prefix.
  const Counters& c = counters_;
  snap.add_scalar("lama_requests_total", "Requests accepted", "counter",
                  load(c.requests));
  snap.add_scalar("lama_completed_total", "Requests finished (ok or error)",
                  "counter", load(c.completed));
  snap.add_scalar("lama_errors_total", "Requests finished with an error",
                  "counter", load(c.errors));
  snap.add_scalar("lama_cached_total", "Requests that consulted the tree cache",
                  "counter", load(c.cached));
  snap.add_scalar("lama_cache_hits_total", "Trees served from the LRU",
                  "counter", load(c.cache_hits));
  snap.add_scalar("lama_cache_misses_total", "Trees built by the request",
                  "counter", load(c.cache_misses));
  snap.add_scalar("lama_coalesced_total", "Requests that joined an in-flight build",
                  "counter", load(c.coalesced));
  snap.add_scalar("lama_evictions_total", "Trees dropped by LRU policy",
                  "counter", load(c.evictions));
  snap.add_scalar("lama_uncached_total", "Requests that skipped the cache",
                  "counter", load(c.uncached));
  snap.add_scalar("lama_shed_total", "Requests rejected by admission control",
                  "counter", load(c.shed));
  snap.add_scalar("lama_deadlined_total", "Requests cancelled past deadline",
                  "counter", load(c.deadlined));
  snap.add_scalar("lama_integrity_failures_total",
                  "Cached trees rejected by integrity verification", "counter",
                  load(c.integrity_failures));
  snap.add_scalar("lama_degraded_total",
                  "Requests that fell back to the uncached path", "counter",
                  load(c.degraded));
  snap.add_scalar("lama_invalidations_total", "Trees dropped by epoch bumps",
                  "counter", load(c.invalidations));
  snap.add_scalar("lama_remaps_total", "Remap requests accepted", "counter",
                  load(c.remaps));
  snap.add_scalar("lama_batched_total", "Batch requests accepted", "counter",
                  load(c.batched));
  snap.add_scalar("lama_batch_jobs_total", "Jobs carried by batches", "counter",
                  load(c.batch_jobs));
  snap.add_scalar("lama_plan_cache_hits_total",
                  "Compiled plans served from the LRU", "counter",
                  load(c.plan_hits));
  snap.add_scalar("lama_plan_cache_misses_total",
                  "Compiled plans built by the request", "counter",
                  load(c.plan_misses));
  snap.add_scalar("lama_opt_requests_total", "OPTIMIZE requests accepted",
                  "counter", load(c.opt_requests));
  snap.add_scalar("lama_opt_hits_total",
                  "OPTIMIZE requests served from the opt cache", "counter",
                  load(c.opt_hits));
  snap.add_scalar("lama_opt_misses_total",
                  "OPTIMIZE requests that ran the placement search", "counter",
                  load(c.opt_misses));
  snap.add_scalar("lama_opt_candidates_total",
                  "Seed placements priced by OPTIMIZE misses", "counter",
                  load(c.opt_candidates));
  snap.add_scalar("lama_opt_swaps_total",
                  "Refinement swaps applied by OPTIMIZE misses", "counter",
                  load(c.opt_swaps));

  // Service gauges.
  snap.add_scalar("lama_uptime_seconds", "Seconds since service construction",
                  "gauge", uptime_s());
  snap.add_scalar("lama_cache_trees", "Trees currently cached", "gauge",
                  static_cast<double>(cache_.size()));
  snap.add_scalar("lama_cache_plans", "Compiled plans currently cached",
                  "gauge", static_cast<double>(plan_cache_.size()));
  snap.add_scalar("lama_cache_opts", "Optimization results currently cached",
                  "gauge", static_cast<double>(opt_cache_.size()));
  snap.add_scalar("lama_inflight_requests", "Requests currently in flight",
                  "gauge",
                  static_cast<double>(
                      inflight_.load(std::memory_order_relaxed)));

  // Labeled request series (bounded; overflow folds into "_other").
  {
    obs::MetricFamily& family =
        snap.add("lama_requests_by_layout_total",
                 "Requests per canonical layout (or baseline spec)", "counter");
    for (const auto& [layout, count] : layout_series_.snapshot()) {
      family.samples.push_back(
          {"", {{"layout", layout}}, static_cast<double>(count)});
    }
    obs::MetricFamily& alloc_family =
        snap.add("lama_requests_by_alloc_total",
                 "Requests per allocation fingerprint", "counter");
    for (const auto& [fp, count] : alloc_series_.snapshot()) {
      alloc_family.samples.push_back(
          {"", {{"alloc", fp}}, static_cast<double>(count)});
    }
  }

  // Durability (all absent when no state store is attached; the lone
  // lama_draining gauge is always exported so dashboards can alert on a
  // drain that never finishes).
  snap.add_scalar("lama_draining", "1 while the service is draining", "gauge",
                  draining() ? 1.0 : 0.0);
  if (durability_ != nullptr) {
    const dur::StoreStats d = durability_->stats();
    snap.add_scalar("lama_dur_journal_records_total",
                    "Mutation records appended to the write-ahead journal",
                    "counter", static_cast<double>(d.journal.appended));
    snap.add_scalar("lama_dur_journal_bytes_total",
                    "Bytes appended to the write-ahead journal", "counter",
                    static_cast<double>(d.journal.bytes));
    snap.add_scalar("lama_dur_journal_fsyncs_total",
                    "Journal fsync calls issued", "counter",
                    static_cast<double>(d.journal.fsyncs));
    snap.add_scalar("lama_dur_journal_errors_total",
                    "Journal records lost to write or fsync failures",
                    "counter",
                    static_cast<double>(d.journal.write_errors +
                                        d.journal.fsync_errors));
    snap.add_scalar("lama_dur_snapshots_total",
                    "Compacting snapshots written", "counter",
                    static_cast<double>(d.snapshots));
    snap.add_scalar("lama_dur_snapshot_errors_total",
                    "Snapshot rotations that failed", "counter",
                    static_cast<double>(d.snapshot_errors));
    snap.add_scalar("lama_dur_recovered_records_total",
                    "Journal records replayed at startup", "counter",
                    static_cast<double>(d.recovered_records));
    snap.add_scalar("lama_dur_torn_tails_total",
                    "Journal tails truncated at recovery", "counter",
                    static_cast<double>(d.torn_tails));
    snap.add_scalar("lama_dur_journal_lag",
                    "Records appended but not yet fsynced", "gauge",
                    static_cast<double>(durability_->journal_lag()));
    snap.add_scalar("lama_dur_snapshot_seq",
                    "Current snapshot/journal generation", "gauge",
                    static_cast<double>(durability_->snapshot_seq()));
  }

  // Transport (absent when no event-loop server is attached). The
  // aggregate series sum every attached shard; with more than one shard a
  // shard-labeled split follows so imbalance in the kernel's SO_REUSEPORT
  // hashing is visible without changing the aggregate names.
  const std::vector<const NetCounters*> shards = [this] {
    const std::lock_guard<std::mutex> lock(net_mu_);
    return net_;
  }();
  if (!shards.empty()) {
    const auto sum = [&](const std::atomic<std::uint64_t> NetCounters::*field) {
      double total = 0.0;
      for (const NetCounters* shard : shards) total += load(shard->*field);
      return total;
    };
    const double accepted = sum(&NetCounters::accepted);
    const double closed = sum(&NetCounters::closed);
    snap.add_scalar("lama_net_accepted_total", "Connections accepted",
                    "counter", accepted);
    snap.add_scalar("lama_net_closed_total", "Connections closed", "counter",
                    closed);
    snap.add_scalar("lama_net_rejected_total",
                    "Accepts refused at the connection cap", "counter",
                    sum(&NetCounters::rejected));
    snap.add_scalar("lama_net_text_requests_total",
                    "Text-framed requests dispatched", "counter",
                    sum(&NetCounters::text_requests));
    snap.add_scalar("lama_net_binary_requests_total",
                    "Binary-framed requests dispatched", "counter",
                    sum(&NetCounters::binary_requests));
    snap.add_scalar("lama_net_responses_total",
                    "Responses enqueued for write", "counter",
                    sum(&NetCounters::responses));
    snap.add_scalar("lama_net_shed_total",
                    "Requests shed by write-buffer backpressure", "counter",
                    sum(&NetCounters::shed_backpressure));
    snap.add_scalar("lama_net_frame_errors_total",
                    "Malformed frames and overlong lines", "counter",
                    sum(&NetCounters::frame_errors));
    snap.add_scalar("lama_net_disconnects_total",
                    "Connections lost with a partial request buffered",
                    "counter", sum(&NetCounters::midstream_disconnects));
    snap.add_scalar("lama_net_bytes_in_total", "Bytes read from peers",
                    "counter", sum(&NetCounters::bytes_in));
    snap.add_scalar("lama_net_bytes_out_total", "Bytes written to peers",
                    "counter", sum(&NetCounters::bytes_out));
    snap.add_scalar("lama_net_active_connections",
                    "Connections currently open", "gauge",
                    accepted >= closed ? accepted - closed : 0.0);
    snap.add_scalar("lama_net_shards", "Attached event-loop shards", "gauge",
                    static_cast<double>(shards.size()));
    if (shards.size() > 1) {
      obs::MetricFamily& reqs =
          snap.add("lama_net_shard_requests_total",
                   "Requests dispatched per event-loop shard", "counter");
      obs::MetricFamily& resp =
          snap.add("lama_net_shard_responses_total",
                   "Responses enqueued per event-loop shard", "counter");
      obs::MetricFamily& conns =
          snap.add("lama_net_shard_active_connections",
                   "Connections currently open per event-loop shard",
                   "gauge");
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const std::string label = std::to_string(i);
        const NetCounters& s = *shards[i];
        reqs.samples.push_back(
            {"", {{"shard", label}},
             static_cast<double>(load(s.text_requests) +
                                 load(s.binary_requests))});
        resp.samples.push_back(
            {"", {{"shard", label}}, static_cast<double>(load(s.responses))});
        conns.samples.push_back(
            {"", {{"shard", label}}, static_cast<double>(s.active())});
      }
    }
  }

  // Tracer activity (all zero when tracing is disabled).
  snap.add_scalar("lama_traces_started_total", "Traces begun", "counter",
                  tracer_ ? static_cast<double>(tracer_->started()) : 0.0);
  snap.add_scalar("lama_traces_assembled_total",
                  "Traces assembled into the flight recorder", "counter",
                  tracer_ ? static_cast<double>(tracer_->assembled()) : 0.0);
  snap.add_scalar("lama_traces_tail_total",
                  "Traces captured by the adaptive tail gate", "counter",
                  tracer_ ? static_cast<double>(tracer_->tail_captured())
                          : 0.0);
  snap.add_scalar("lama_tail_threshold_ns",
                  "Current tail-gate latency estimate (ns)", "gauge",
                  tracer_ ? static_cast<double>(tracer_->tail_threshold_ns())
                          : 0.0);
  snap.add_scalar("lama_trace_dumps_total",
                  "Failure traces recorded for dumping", "counter",
                  tracer_ ? static_cast<double>(tracer_->recorder().dumps())
                          : 0.0);
  snap.add_scalar("lama_flight_recorder_traces",
                  "Complete traces currently retained", "gauge",
                  tracer_ ? static_cast<double>(tracer_->recorder().size())
                          : 0.0);

  // Per-stage latency histograms, with trace-id exemplars for sampled
  // traces. Every latency figure STATS, WATCH and `lamactl top` show is
  // read from this family.
  add_stage_histograms(snap, stage_stats_);

  // SLO accounting (absent unless objectives were configured). One family
  // is filled completely before the next snap.add — add may reallocate the
  // family vector, so references must not be held across it.
  if (slo_.enabled()) {
    const std::vector<SloTracker::VerbSnapshot> verbs = slo_.snapshot();
    obs::MetricFamily& objective =
        snap.add("lama_slo_objective_ns", "Per-verb latency objective (ns)",
                 "gauge");
    for (const SloTracker::VerbSnapshot& v : verbs) {
      objective.samples.push_back(
          {"", {{"verb", v.verb}}, static_cast<double>(v.threshold_ns)});
    }
    obs::MetricFamily& good = snap.add(
        "lama_slo_good_total", "Requests inside their verb's objective",
        "counter");
    for (const SloTracker::VerbSnapshot& v : verbs) {
      good.samples.push_back(
          {"", {{"verb", v.verb}}, static_cast<double>(v.good)});
    }
    obs::MetricFamily& bad = snap.add(
        "lama_slo_bad_total",
        "Requests that failed or overran their verb's objective", "counter");
    for (const SloTracker::VerbSnapshot& v : verbs) {
      bad.samples.push_back(
          {"", {{"verb", v.verb}}, static_cast<double>(v.bad)});
    }
    obs::MetricFamily& burn = snap.add(
        "lama_slo_burn_rate",
        "Error-budget burn rate (1.0 = exactly consuming the budget)",
        "gauge");
    for (const SloTracker::VerbSnapshot& v : verbs) {
      burn.samples.push_back(
          {"", {{"verb", v.verb}, {"window", "fast"}}, v.fast_burn});
      burn.samples.push_back(
          {"", {{"verb", v.verb}, {"window", "slow"}}, v.slow_burn});
    }
  }
  return snap;
}

std::string MappingService::stats_line() const {
  return stats_line_of(metrics_snapshot());
}

void MappingService::attach_net(const NetCounters* net) {
  const std::lock_guard<std::mutex> lock(net_mu_);
  if (net == nullptr) {
    net_.clear();
    return;
  }
  net_.push_back(net);
}

void MappingService::detach_net(const NetCounters* net) {
  const std::lock_guard<std::mutex> lock(net_mu_);
  net_.erase(std::remove(net_.begin(), net_.end(), net), net_.end());
}

const NetCounters* MappingService::net() const {
  const std::lock_guard<std::mutex> lock(net_mu_);
  return net_.empty() ? nullptr : net_.front();
}

std::size_t MappingService::net_shards() const {
  const std::lock_guard<std::mutex> lock(net_mu_);
  return net_.size();
}

}  // namespace lama::svc
