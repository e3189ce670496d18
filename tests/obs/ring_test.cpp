// Unit tests for the lock-free per-thread span rings: push/collect
// filtering, overwrite-oldest wraparound, torn-read rejection under a
// concurrent collector, and ring-lease recycling across thread exits.
#include "obs/ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace lama::obs {
namespace {

Span make_span(std::uint64_t trace_id, std::uint32_t detail,
               Stage stage = Stage::kOptCandidate) {
  Span span;
  span.trace_id = trace_id;
  span.start_ns = 1000 + detail;
  span.end_ns = 2000 + detail;
  span.detail = detail;
  span.stage = stage;
  return span;
}

TEST(SpanRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpanRing(1).capacity(), 1u);
  EXPECT_EQ(SpanRing(5).capacity(), 8u);
  EXPECT_EQ(SpanRing(512).capacity(), 512u);
  EXPECT_EQ(SpanRing(0).capacity(), 1u);  // degenerate, still usable
}

TEST(SpanRing, CollectFiltersByTraceIdAndPreservesFields) {
  SpanRing ring(16);
  ring.push(make_span(7, 0, Stage::kLookup));
  ring.push(make_span(8, 1, Stage::kMap));
  ring.push(make_span(7, 2, Stage::kBind));

  std::vector<Span> out;
  ring.collect(7, out);
  ASSERT_EQ(out.size(), 2u);
  std::set<std::uint32_t> details;
  for (const Span& span : out) {
    EXPECT_EQ(span.trace_id, 7u);
    EXPECT_EQ(span.start_ns, 1000u + span.detail);
    EXPECT_EQ(span.end_ns, 2000u + span.detail);
    details.insert(span.detail);
  }
  EXPECT_EQ(details, (std::set<std::uint32_t>{0, 2}));

  out.clear();
  ring.collect(99, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpanRing, WraparoundKeepsTheNewestCapacitySpans) {
  SpanRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint32_t i = 0; i < 20; ++i) ring.push(make_span(1, i));
  EXPECT_EQ(ring.pushed(), 20u);

  std::vector<Span> out;
  ring.collect(1, out);
  ASSERT_EQ(out.size(), 8u);
  std::set<std::uint32_t> details;
  for (const Span& span : out) details.insert(span.detail);
  // The oldest 12 were overwritten; exactly 12..19 survive.
  std::set<std::uint32_t> expected;
  for (std::uint32_t i = 12; i < 20; ++i) expected.insert(i);
  EXPECT_EQ(details, expected);
}

TEST(SpanRing, ConcurrentCollectorNeverObservesTornSpans) {
  SpanRing ring(8);  // small ring: overwrites are constant
  std::atomic<bool> stop{false};
  // The owner publishes spans whose fields are linked by an invariant; a
  // torn read (fields from two different pushes) would break it.
  std::thread owner([&] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Span span;
      span.trace_id = 1;
      span.start_ns = i;
      span.end_ns = static_cast<std::uint64_t>(i) + 0x100000000ULL;
      span.detail = i;
      span.stage = Stage::kOptCandidate;
      ring.push(span);
      ++i;
    }
  });
  for (int round = 0; round < 2000; ++round) {
    std::vector<Span> out;
    ring.collect(1, out);
    for (const Span& span : out) {
      ASSERT_EQ(span.end_ns, span.start_ns + 0x100000000ULL);
      ASSERT_EQ(span.detail, static_cast<std::uint32_t>(span.start_ns));
    }
  }
  // Make sure the owner has filled the ring at least once (it may have
  // been starved while the collect rounds ran), then stop it.
  while (ring.pushed() < ring.capacity()) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  owner.join();
  // A slot being overwritten mid-read is skipped, so under constant
  // overwrite pressure the concurrent rounds may legitimately collect
  // nothing. Once the owner is quiescent every slot must read cleanly.
  std::vector<Span> out;
  ring.collect(1, out);
  ASSERT_EQ(out.size(), ring.capacity());
  for (const Span& span : out) {
    ASSERT_EQ(span.end_ns, span.start_ns + 0x100000000ULL);
    ASSERT_EQ(span.detail, static_cast<std::uint32_t>(span.start_ns));
  }
}

TEST(RingRegistry, LocalRingIsStablePerThread) {
  RingRegistry& registry = RingRegistry::instance();
  std::uint32_t tid1 = 0xFFFFFFFF, tid2 = 0xFFFFFFFF;
  SpanRing& ring1 = registry.local_ring(tid1);
  SpanRing& ring2 = registry.local_ring(tid2);
  EXPECT_EQ(&ring1, &ring2);
  EXPECT_EQ(tid1, tid2);
  EXPECT_LT(tid1, registry.num_rings());
}

TEST(RingRegistry, LeaseIsRecycledAfterThreadExit) {
  RingRegistry& registry = RingRegistry::instance();
  std::uint32_t first = 0;
  std::thread([&] { registry.local_ring(first); }).join();
  const std::size_t rings_after_first = registry.num_rings();
  std::uint32_t second = 0xFFFFFFFF;
  std::thread([&] { registry.local_ring(second); }).join();
  // The second thread reuses the first thread's freed ring instead of
  // growing the registry.
  EXPECT_EQ(second, first);
  EXPECT_EQ(registry.num_rings(), rings_after_first);
}

TEST(RingRegistry, CollectScansEveryRing) {
  RingRegistry& registry = RingRegistry::instance();
  const std::uint64_t trace_id = 0xC011EC7;
  std::uint32_t main_tid = 0;
  registry.local_ring(main_tid).push(make_span(trace_id, 100));
  std::thread([&] {
    std::uint32_t tid = 0;
    registry.local_ring(tid).push(make_span(trace_id, 200));
  }).join();

  std::vector<Span> out;
  registry.collect(trace_id, out);
  std::set<std::uint32_t> details;
  for (const Span& span : out) details.insert(span.detail);
  EXPECT_TRUE(details.count(100));
  EXPECT_TRUE(details.count(200));
}

}  // namespace
}  // namespace lama::obs
