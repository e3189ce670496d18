// Unit tests for the tracer: thread-local context, span recording and
// cross-thread handoff, deterministic head-based sampling, always-on
// assembly for failures, and the flight recorder's retention contract.
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"

namespace lama::obs {
namespace {

TracerConfig always_config() {
  TracerConfig config;
  config.flight_capacity = 8;
  config.sample_every = 1;
  return config;
}

TEST(Tracer, BeginInstallsAndEndClearsThreadContext) {
  Tracer tracer(always_config());
  EXPECT_EQ(current_trace_id(), 0u);
  const std::uint64_t id = tracer.begin();
  EXPECT_NE(id, 0u);
  EXPECT_EQ(current_trace_id(), id);
  const Tracer::End end = tracer.end(id, Outcome::kOk);
  EXPECT_TRUE(end.assembled);
  EXPECT_FALSE(end.failure);
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST(Tracer, TraceIdsAreProcessWideUnique) {
  Tracer a(always_config());
  Tracer b(always_config());
  const std::uint64_t id_a = a.begin();
  a.end(id_a, Outcome::kOk);
  const std::uint64_t id_b = b.begin();
  b.end(id_b, Outcome::kOk);
  EXPECT_NE(id_a, id_b);
}

TEST(Tracer, AssembledTraceContainsSpansAndSynthesizedRoot) {
  Tracer tracer(always_config());
  const std::uint64_t id = tracer.begin();
  {
    const SpanScope lookup(Stage::kLookup, 1);
    const SpanScope bind(Stage::kBind, 3);
  }
  tracer.end(id, Outcome::kOk);

  const auto trace = tracer.recorder().by_id(id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->id, id);
  EXPECT_EQ(trace->outcome, Outcome::kOk);
  ASSERT_GE(trace->spans.size(), 3u);
  // The synthesized request-root span sorts first and encloses the rest.
  EXPECT_EQ(trace->spans[0].stage, Stage::kRequest);
  for (std::size_t i = 1; i < trace->spans.size(); ++i) {
    EXPECT_GE(trace->spans[i].start_ns, trace->spans[0].start_ns);
    EXPECT_LE(trace->spans[i].end_ns, trace->spans[0].end_ns);
    EXPECT_GE(trace->spans[i].start_ns, trace->spans[i - 1].start_ns);
  }
  std::set<Stage> stages;
  for (const Span& span : trace->spans) stages.insert(span.stage);
  EXPECT_TRUE(stages.count(Stage::kLookup));
  EXPECT_TRUE(stages.count(Stage::kBind));
}

TEST(Tracer, SpanRecordingIsInertWithoutAnActiveTrace) {
  ASSERT_EQ(current_trace_id(), 0u);
  EXPECT_EQ(span_begin(), 0u);
  // Must not crash or record anywhere.
  span_end(Stage::kMap, 0, 0);
  { const SpanScope scope(Stage::kMap); }
}

TEST(Tracer, ScopedTraceHandsContextToWorkerThreads) {
  Tracer tracer(always_config());
  const std::uint64_t id = tracer.begin();
  const TraceHandle handle = current_trace();
  EXPECT_EQ(handle.id, id);

  std::thread worker([handle] {
    EXPECT_EQ(current_trace_id(), 0u);  // fresh thread: no inherited trace
    const ScopedTrace scoped(handle);
    EXPECT_EQ(current_trace_id(), handle.id);
    const SpanScope candidate(Stage::kOptCandidate, 42);
  });
  worker.join();
  tracer.end(id, Outcome::kOk);

  const auto trace = tracer.recorder().by_id(id);
  ASSERT_TRUE(trace.has_value());
  bool found_candidate = false;
  for (const Span& span : trace->spans) {
    if (span.stage == Stage::kOptCandidate && span.detail == 42) {
      found_candidate = true;
    }
  }
  EXPECT_TRUE(found_candidate);
}

TEST(Tracer, EmptyScopedTraceSuspendsRecording) {
  Tracer tracer(always_config());
  const std::uint64_t id = tracer.begin();
  {
    const ScopedTrace suspend{TraceHandle{}};
    EXPECT_EQ(current_trace_id(), 0u);
    EXPECT_EQ(span_begin(), 0u);
    const SpanScope invisible(Stage::kMap, 777);
  }
  EXPECT_EQ(current_trace_id(), id);  // restored on scope exit
  tracer.end(id, Outcome::kOk);

  const auto trace = tracer.recorder().by_id(id);
  ASSERT_TRUE(trace.has_value());
  for (const Span& span : trace->spans) EXPECT_NE(span.detail, 777u);
}

TEST(Tracer, ScopedParentLinksTheNextTrace) {
  Tracer tracer(always_config());
  const std::uint64_t batch_id = tracer.begin();
  tracer.end(batch_id, Outcome::kOk);

  std::uint64_t child_id = 0;
  {
    const ScopedParent parent(batch_id);
    child_id = tracer.begin();
    tracer.end(child_id, Outcome::kOk);
  }
  const auto child = tracer.recorder().by_id(child_id);
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->parent_id, batch_id);

  // Consumed: an unrelated follow-up trace is not parented.
  const std::uint64_t next_id = tracer.begin();
  tracer.end(next_id, Outcome::kOk);
  const auto next = tracer.recorder().by_id(next_id);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->parent_id, 0u);
}

TEST(Tracer, SamplingIsDeterministicInIdAndSeed) {
  TracerConfig config;
  config.sample_every = 4;
  config.seed = 1234;
  Tracer a(config);
  Tracer b(config);
  std::size_t sampled = 0;
  for (std::uint64_t id = 1; id <= 4096; ++id) {
    EXPECT_EQ(a.sampled(id), b.sampled(id));  // same seed -> same choice
    if (a.sampled(id)) ++sampled;
  }
  // Roughly 1-in-4 of a well-mixed hash; generous bounds reject both
  // all-sampled and none-sampled regressions.
  EXPECT_GT(sampled, 4096u / 8);
  EXPECT_LT(sampled, 4096u / 2);

  config.seed = 5678;
  Tracer c(config);
  std::size_t differing = 0;
  for (std::uint64_t id = 1; id <= 4096; ++id) {
    if (a.sampled(id) != c.sampled(id)) ++differing;
  }
  EXPECT_GT(differing, 0u);  // the seed perturbs the choice
}

TEST(Tracer, SampleEveryOneKeepsAllAndZeroKeepsNoneButFailures) {
  TracerConfig config;
  config.sample_every = 0;  // tracing on, healthy assembly off
  Tracer tracer(config);

  const std::uint64_t healthy = tracer.begin();
  EXPECT_FALSE(tracer.end(healthy, Outcome::kOk).assembled);
  EXPECT_FALSE(tracer.recorder().by_id(healthy).has_value());

  const std::uint64_t failed = tracer.begin();
  const Tracer::End end = tracer.end(failed, Outcome::kDeadlined);
  EXPECT_TRUE(end.assembled);
  EXPECT_TRUE(end.failure);
  const auto trace = tracer.recorder().by_id(failed);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, Outcome::kDeadlined);
  EXPECT_TRUE(trace->failed());
}

TEST(Tracer, StartedAndAssembledCountersTrackEnds) {
  Tracer tracer(always_config());
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t id = tracer.begin();
    tracer.end(id, i == 0 ? Outcome::kError : Outcome::kOk);
  }
  EXPECT_EQ(tracer.started(), 5u);
  EXPECT_EQ(tracer.assembled(), 5u);  // sample_every = 1
  EXPECT_EQ(tracer.recorder().dumps(), 1u);
}

TEST(TraceScope, BeginsOnlyWhenNoTraceIsActive) {
  Tracer tracer(always_config());
  TraceScope outer(nullptr, &tracer);
  EXPECT_NE(outer.id(), 0u);
  {
    TraceScope inner(nullptr, &tracer);  // nested: no second trace
    EXPECT_EQ(inner.id(), 0u);
    EXPECT_EQ(current_trace_id(), outer.id());
  }
  EXPECT_EQ(current_trace_id(), outer.id());  // inner's dtor was a no-op
  outer.set_outcome(Outcome::kOk);
}

TEST(TraceScope, NullTracerIsInert) {
  TraceScope scope(nullptr, nullptr);
  EXPECT_EQ(scope.id(), 0u);
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST(TraceScope, DefaultOutcomeRecordsAFailure) {
  Tracer tracer(always_config());
  std::uint64_t id = 0;
  {
    TraceScope scope(nullptr, &tracer);
    id = scope.id();
    // No set_outcome: simulates an exception unwinding through the scope.
  }
  const auto trace = tracer.recorder().by_id(id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, Outcome::kError);
}

TEST(TraceScope, TransportTracesSkipRequestHistogramAndTailGate) {
  Tracer tracer(always_config());
  StageStats stats;  // the service's histograms, in a service
  {
    TraceScope scope(&stats, &tracer, /*transport=*/true);
    const std::uint64_t t0 = monotonic_ns();
    while (monotonic_ns() == t0) {
    }
    scope.set_outcome(Outcome::kOk);
  }
  // Connection plumbing: neither the request-stage histogram nor the tail
  // gate's duration estimate saw the transport trace.
  EXPECT_EQ(stats.histogram(Stage::kRequest).snapshot().count, 0u);
  EXPECT_EQ(tracer.tail_threshold_ns(), 0u);
  {
    TraceScope scope(&stats, &tracer);
    const std::uint64_t t0 = monotonic_ns();
    while (monotonic_ns() == t0) {
    }
    scope.set_outcome(Outcome::kOk);
  }
  EXPECT_EQ(stats.histogram(Stage::kRequest).snapshot().count, 1u);
  EXPECT_GT(tracer.tail_threshold_ns(), 0u);
  // Transport traces still assemble under sampling, so TRACE can resolve
  // connection-level spans (accept, net-read) when asked.
  EXPECT_EQ(tracer.assembled(), 2u);
}

TEST(TraceScope, StagesRecordWithoutATracerAndNestedScopesCountOneRoot) {
  StageStats stats;
  {
    TraceScope outer(&stats, nullptr);
    TraceScope inner(&stats, nullptr);  // nested: owns no root
    EXPECT_EQ(current_trace_id(), 0u);  // no tracer, no trace
    const SpanScope map(Stage::kMap);
    outer.set_outcome(Outcome::kOk);
  }
  EXPECT_EQ(stats.histogram(Stage::kRequest).snapshot().count, 1u);
  EXPECT_EQ(stats.histogram(Stage::kMap).snapshot().count, 1u);
  // Closing restored the thread's context: spans outside record nowhere.
  EXPECT_EQ(span_begin(), 0u);
  { const SpanScope outside(Stage::kMap); }
  EXPECT_EQ(stats.histogram(Stage::kMap).snapshot().count, 1u);
}

TEST(TraceScope, UnsampledTracesRecordStagesButNoExemplarsOrSpans) {
  TracerConfig config;
  config.sample_every = 0;  // head sampling off: healthy traces unsampled
  Tracer tracer(config);
  StageStats stats;
  std::uint64_t id = 0;
  {
    TraceScope scope(&stats, &tracer);
    id = scope.id();
    const SpanScope map(Stage::kMap);
    scope.set_outcome(Outcome::kOk);
  }
  EXPECT_NE(id, 0u);
  EXPECT_EQ(stats.histogram(Stage::kMap).snapshot().count, 1u);
  EXPECT_EQ(stats.histogram(Stage::kRequest).snapshot().count, 1u);
  for (std::size_t b = 0; b < StageStats::kNumBuckets; ++b) {
    EXPECT_EQ(stats.exemplar(Stage::kMap, b).trace_id, 0u) << b;
    EXPECT_EQ(stats.exemplar(Stage::kRequest, b).trace_id, 0u) << b;
  }
  EXPECT_EQ(tracer.assembled(), 0u);
  EXPECT_FALSE(tracer.recorder().by_id(id).has_value());
}

TEST(FlightRecorder, EvictsOldestBeyondCapacityButKeepsFailuresSeparately) {
  FlightRecorder recorder(2);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    Trace trace;
    trace.id = id;
    trace.outcome = id == 1 ? Outcome::kError : Outcome::kOk;
    recorder.add(trace);
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_FALSE(recorder.by_id(3).has_value());  // aged out of recent
  ASSERT_TRUE(recorder.last().has_value());
  EXPECT_EQ(recorder.last()->id, 5u);
  // The failure survived three healthy evictions in the failure log.
  ASSERT_TRUE(recorder.last_failure().has_value());
  EXPECT_EQ(recorder.last_failure()->id, 1u);
  EXPECT_TRUE(recorder.by_id(1).has_value());
  EXPECT_EQ(recorder.dumps(), 1u);
}

TEST(FlightRecorder, DumpSinkFiresForEveryFailure) {
  FlightRecorder recorder(4);
  std::vector<std::uint64_t> dumped;
  recorder.set_dump_sink([&](const Trace& trace) { dumped.push_back(trace.id); });
  Trace ok;
  ok.id = 10;
  recorder.add(ok);
  Trace shed;
  shed.id = 11;
  shed.outcome = Outcome::kShed;
  recorder.add(shed);
  Trace degraded;
  degraded.id = 12;
  degraded.outcome = Outcome::kDegraded;
  recorder.add(degraded);
  EXPECT_EQ(dumped, (std::vector<std::uint64_t>{11, 12}));
  EXPECT_EQ(recorder.dumps(), 2u);
}

TEST(Clock, MonotonicNsNeverGoesBackwards) {
  std::uint64_t last = monotonic_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = monotonic_ns();
    EXPECT_GE(now, last);
    last = now;
  }
}

}  // namespace
}  // namespace lama::obs
