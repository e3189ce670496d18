// The tracer ties the pieces together: it assigns trace ids, carries the
// active trace through thread-local context (with explicit handoff to
// worker-pool threads), decides via head-based sampling whether a
// finished request is worth assembling, and feeds assembled traces to the
// flight recorder. Failed requests are always assembled — sampling only
// thins the healthy traffic.
//
// Recording is free-function based (`span_begin` / `span_end` / SpanScope)
// so the lama mapping layers can emit spans without a tracer reference.
// Every span ends in the thread's stage-latency sink (a StageStats the
// service installs at each request scope, with or without a tracer); only
// spans of sampled traces are also pushed to the rings for assembly. With
// neither a sink nor a sampled trace on the thread the calls are a branch
// and return.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "obs/stage_stats.hpp"

namespace lama::obs {

// ---- Thread-local trace context -------------------------------------------

// The request context active on some thread, for handoff: capture with
// current_trace() before spawning a worker, install in the worker with
// ScopedTrace. A default-constructed handle is "no request, no trace" and
// installing it suspends recording on the thread (used to detach inline
// batch jobs from the batch's scope).
struct TraceHandle {
  std::uint64_t id = 0;      // trace id, 0 when no tracer traces the request
  std::uint64_t parent = 0;
  // When the open request scope began; 0 when none is open on the thread.
  std::uint64_t begin_ns = 0;
  // The service's per-stage histograms: every span_end records here. Travels
  // with the handoff, so worker threads feed the same stats as the thread
  // that opened the request.
  StageStats* stats = nullptr;
  // Head-based sampling decision made at begin(): only a sampled trace's
  // spans reach the rings and leave exemplars. An unsampled failure still
  // assembles with just its root span.
  bool record = false;
  // A transport-level trace (socket accept, one readable event): its root
  // duration is connection plumbing, not a request, so it stays out of the
  // request-stage histogram and the tail gate's duration estimate.
  bool transport = false;
};

// Trace id active on this thread, 0 when none.
[[nodiscard]] std::uint64_t current_trace_id();
[[nodiscard]] TraceHandle current_trace();

// Installs a trace handle on this thread for the scope's lifetime and
// restores whatever was active before. Works across threads: the canonical
// use is capturing current_trace() on the spawning thread and constructing
// the ScopedTrace inside the worker.
class ScopedTrace {
 public:
  explicit ScopedTrace(const TraceHandle& handle);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceHandle saved_;
};

// Marks the next Tracer::begin() on this thread as a child of `parent_id`
// (a batch trace parenting its per-job traces). Consumed by one begin().
class ScopedParent {
 public:
  explicit ScopedParent(std::uint64_t parent_id);
  ~ScopedParent();
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  std::uint64_t saved_;
};

// ---- Span recording --------------------------------------------------------

// Start timestamp for a span, or 0 when the thread has neither a stats sink
// nor a sampled trace (the matching span_end with start_ns == 0 is a no-op,
// so a span outside any service costs one TLS read and no clock read).
[[nodiscard]] std::uint64_t span_begin();
void span_end(Stage stage, std::uint32_t detail, std::uint64_t start_ns);

class SpanScope {
 public:
  explicit SpanScope(Stage stage, std::uint32_t detail = 0)
      : stage_(stage), detail_(detail), start_ns_(span_begin()) {}
  ~SpanScope() { span_end(stage_, detail_, start_ns_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Stage stage_;
  std::uint32_t detail_;
  std::uint64_t start_ns_;
};

// ---- The tracer ------------------------------------------------------------

struct TracerConfig {
  // Complete traces retained by the flight recorder.
  std::size_t flight_capacity = 16;
  // Head-based sampling: assemble 1-in-N healthy traces (0 = none,
  // 1 = every trace). Failures are always assembled.
  std::uint32_t sample_every = 64;
  // Perturbs which ids are sampled; fixed seed -> deterministic choice.
  std::uint64_t seed = 0;
  // Tail-triggered capture: assemble any trace noticeably slower than a
  // decayed p99 estimate of request duration, regardless of head sampling.
  // Captured traces get Outcome::kSlow and land in the flight recorder's
  // failure window (failure log + dump sink).
  bool tail_capture = true;
  // The gate never fires below this duration, so µs-scale warm-cache
  // traffic does not flood the recorder with noise "tails".
  std::uint64_t tail_floor_ns = 100 * 1000;
};

class Tracer {
 public:
  explicit Tracer(const TracerConfig& config);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts a trace and installs it as this thread's context. Returns the
  // id (never 0). Nesting is the caller's concern: TraceScope only begins
  // when no trace is active. `transport` marks connection-plumbing traces
  // (see TraceHandle::transport).
  std::uint64_t begin(bool transport = false);

  struct End {
    bool assembled = false;
    bool failure = false;
    // The tail gate fired: the request succeeded but ran slower than the
    // decayed p99 estimate and was captured as Outcome::kSlow.
    bool slow = false;
    std::uint64_t duration_ns = 0;  // begin() to end()
  };

  // Ends the trace: uninstalls the thread context and — when the outcome is
  // a failure or the id is sampled — collects its spans from every ring,
  // prepends the root request span, and hands the trace to the recorder.
  End end(std::uint64_t id, Outcome outcome);

  // The sampling decision for an id (deterministic in id and seed).
  [[nodiscard]] bool sampled(std::uint64_t id) const;

  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }
  [[nodiscard]] const TracerConfig& config() const { return config_; }

  [[nodiscard]] std::uint64_t started() const {
    return started_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t assembled() const {
    return assembled_.load(std::memory_order_relaxed);
  }
  // Traces captured by the tail gate (Outcome::kSlow).
  [[nodiscard]] std::uint64_t tail_captured() const {
    return tail_captured_.load(std::memory_order_relaxed);
  }
  // The current decayed p99 duration estimate driving the tail gate (ns).
  [[nodiscard]] std::uint64_t tail_threshold_ns() const {
    return tail_threshold_ns_.load(std::memory_order_relaxed);
  }

 private:
  // Updates the decayed p99 estimate with one request duration and reports
  // whether the tail gate fires for it.
  bool tail_gate(std::uint64_t duration_ns);

  TracerConfig config_;
  FlightRecorder recorder_;
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> assembled_{0};
  std::atomic<std::uint64_t> tail_captured_{0};
  std::atomic<std::uint64_t> tail_threshold_ns_{0};
  std::atomic<std::uint64_t> tail_warmup_{0};
};

// A request scope. It opens only when no request scope is open on this
// thread — a protocol MAP line must not count a second request inside
// MappingService::map. Opening installs `stats` as the thread's span sink
// and, when a tracer is given, begins a trace; closing records the
// `request` root into `stats` (transport scopes excepted: connection
// plumbing is not a request), ends the trace, and restores the thread's
// previous context. The outcome defaults to kError so an exception
// unwinding through the scope records a failure; success paths overwrite
// it via set_outcome.
class TraceScope {
 public:
  TraceScope(StageStats* stats, Tracer* tracer, bool transport = false);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void set_outcome(Outcome outcome) { outcome_ = outcome; }
  // 0 when this scope did not begin a trace.
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  StageStats* stats_;
  Tracer* tracer_;
  TraceHandle saved_;
  bool opened_ = false;
  bool transport_;
  std::uint64_t id_ = 0;
  Outcome outcome_ = Outcome::kError;
};

}  // namespace lama::obs
