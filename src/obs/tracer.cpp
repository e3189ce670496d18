#include "obs/tracer.hpp"

#include <algorithm>

#include "obs/clock.hpp"
#include "obs/ring.hpp"
#include "support/hash.hpp"

namespace lama::obs {

namespace {

thread_local TraceHandle t_ctx;
thread_local std::uint64_t t_pending_parent = 0;

// Trace ids are process-wide so spans from concurrent services (tests run
// several) can never alias inside the shared ring registry.
std::atomic<std::uint64_t> g_next_trace_id{1};

}  // namespace

std::uint64_t current_trace_id() { return t_ctx.id; }

TraceHandle current_trace() { return t_ctx; }

ScopedTrace::ScopedTrace(const TraceHandle& handle) : saved_(t_ctx) {
  t_ctx = handle;
}

ScopedTrace::~ScopedTrace() { t_ctx = saved_; }

ScopedParent::ScopedParent(std::uint64_t parent_id)
    : saved_(t_pending_parent) {
  t_pending_parent = parent_id;
}

ScopedParent::~ScopedParent() { t_pending_parent = saved_; }

std::uint64_t span_begin() {
  return t_ctx.stats != nullptr || t_ctx.record ? monotonic_ns() : 0;
}

void span_end(Stage stage, std::uint32_t detail, std::uint64_t start_ns) {
  if (start_ns == 0) return;
  const std::uint64_t end_ns = monotonic_ns();
  // Stage latency histogram, wait-free, on every request. The exemplar and
  // the ring push are for sampled traces only, so every exemplar id belongs
  // to a trace the tracer will assemble.
  const std::uint64_t exemplar = t_ctx.record ? t_ctx.id : 0;
  if (t_ctx.stats != nullptr) {
    t_ctx.stats->record(stage, end_ns - start_ns, exemplar);
  }
  if (exemplar == 0) return;
  Span span;
  span.trace_id = exemplar;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.detail = detail;
  span.stage = stage;
  SpanRing& ring = RingRegistry::instance().local_ring(span.tid);
  ring.push(span);
}

Tracer::Tracer(const TracerConfig& config)
    : config_(config), recorder_(config.flight_capacity) {}

std::uint64_t Tracer::begin(bool transport) {
  const std::uint64_t id =
      g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  t_ctx.id = id;
  t_ctx.parent = t_pending_parent;
  t_pending_parent = 0;  // consumed by this begin
  t_ctx.begin_ns = monotonic_ns();
  t_ctx.transport = transport;
  // The head-based sampling decision: an unsampled trace pushes no spans to
  // the rings (its stages still reach the stats sink), so the default 1/64
  // rate keeps trace assembly within its overhead budget. A failed
  // unsampled request still assembles at end() with its synthesized root
  // span carrying id, outcome, and duration.
  t_ctx.record = sampled(id);
  started_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool Tracer::tail_gate(std::uint64_t duration_ns) {
  if (!config_.tail_capture) return false;
  // A stochastic decayed-p99 estimate: samples above the estimate pull it
  // up by 1/8 of the gap, samples below decay it by 1/4096 — the estimate
  // settles just above the bulk of the distribution and tracks load shifts
  // within a few thousand requests. The gate itself asks for 1.25x the
  // estimate so steady traffic at the estimate does not self-capture; a
  // short warmup keeps the first requests from tripping a cold estimate.
  const std::uint64_t est = tail_threshold_ns_.load(std::memory_order_relaxed);
  std::uint64_t updated;
  if (duration_ns > est) {
    updated = est + (duration_ns - est) / 8 + 1;
  } else {
    updated = est - est / 4096;
  }
  tail_threshold_ns_.store(updated, std::memory_order_relaxed);
  constexpr std::uint64_t kWarmup = 64;
  if (tail_warmup_.load(std::memory_order_relaxed) < kWarmup) {
    tail_warmup_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (duration_ns <= config_.tail_floor_ns) return false;
  return duration_ns > est + est / 4;
}

Tracer::End Tracer::end(std::uint64_t id, Outcome outcome) {
  End result;
  result.failure = outcome != Outcome::kOk;
  const TraceHandle handle = t_ctx;
  if (handle.id == id) t_ctx = TraceHandle{};
  const std::uint64_t end_ns = monotonic_ns();
  result.duration_ns = end_ns > handle.begin_ns ? end_ns - handle.begin_ns : 0;
  // Transport traces (socket accept, one readable event) are connection
  // plumbing: they do not feed the tail gate's duration estimate — a flood
  // of µs-scale readable events must not drag the estimate down and
  // spuriously capture normal requests.
  const bool request = !handle.transport || handle.id != id;
  result.slow = !result.failure && request && tail_gate(result.duration_ns);
  const bool assemble = result.failure || result.slow || sampled(id);
  if (!assemble) return result;
  if (result.slow) {
    tail_captured_.fetch_add(1, std::memory_order_relaxed);
    if (outcome == Outcome::kOk) outcome = Outcome::kSlow;
  }

  Trace trace;
  trace.id = id;
  trace.parent_id = handle.parent;
  trace.begin_ns = handle.begin_ns;
  trace.end_ns = end_ns;
  trace.outcome = outcome;

  // The root request span, synthesised here: it is still open while the
  // rings are scanned, so it cannot come from a ring itself.
  Span root;
  root.trace_id = id;
  root.start_ns = trace.begin_ns;
  root.end_ns = trace.end_ns;
  root.stage = Stage::kRequest;
  RingRegistry::instance().local_ring(root.tid);
  trace.spans.push_back(root);

  RingRegistry::instance().collect(id, trace.spans);
  std::sort(trace.spans.begin(), trace.spans.end(),
            [](const Span& a, const Span& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;  // enclosing spans first
            });

  recorder_.add(std::move(trace));
  assembled_.fetch_add(1, std::memory_order_relaxed);
  result.assembled = true;
  return result;
}

bool Tracer::sampled(std::uint64_t id) const {
  const std::uint32_t n = config_.sample_every;
  if (n == 0) return false;
  if (n == 1) return true;
  const std::uint64_t h =
      mix64(id ^ mix64(config_.seed + 0x9e3779b97f4a7c15ULL));
  return h % n == 0;
}

TraceScope::TraceScope(StageStats* stats, Tracer* tracer, bool transport)
    : stats_(stats), tracer_(tracer), saved_(t_ctx), transport_(transport) {
  if (t_ctx.begin_ns != 0) return;  // nested: the outer scope owns the root
  opened_ = true;
  if (tracer_ != nullptr) {
    id_ = tracer_->begin(transport);
  } else {
    t_ctx.begin_ns = monotonic_ns();
  }
  t_ctx.stats = stats_;
}

TraceScope::~TraceScope() {
  if (!opened_) return;
  const bool root = !transport_ && stats_ != nullptr;
  if (id_ != 0) {
    const Tracer::End end = tracer_->end(id_, outcome_);
    // Only assembled traces leave exemplars, so exported ids resolve via
    // TRACE.
    if (root) {
      stats_->record(Stage::kRequest, end.duration_ns,
                     end.assembled ? id_ : 0);
    }
  } else if (root) {
    stats_->record(Stage::kRequest, monotonic_ns() - t_ctx.begin_ns, 0);
  }
  t_ctx = saved_;
}

}  // namespace lama::obs
