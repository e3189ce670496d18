// Lock-free per-thread span rings. Each recording thread owns one SpanRing:
// push() is wait-free for the owner (a seqlock per slot, overwrite-oldest),
// and any other thread may collect() a consistent snapshot of the spans that
// belong to one trace. The process-wide RingRegistry leases rings to threads
// on first use and recycles them on thread exit, so thread churn reuses a
// bounded pool of rings instead of growing the registry.
//
// Memory model: every slot field is a relaxed atomic bracketed by an
// acquire/release sequence counter (odd while the owner writes). Readers
// that race an overwrite observe a changed or odd sequence and drop the
// slot — never a torn span — and the scheme is explainable to TSan, unlike
// a classic char-buffer seqlock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/span.hpp"

namespace lama::obs {

class SpanRing {
 public:
  // Capacity is rounded up to a power of two; the ring overwrites oldest.
  explicit SpanRing(std::size_t capacity);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  // Owner thread only.
  void push(const Span& span);

  // Any thread: appends every coherently-read span with this trace id.
  // Slots the owner is concurrently overwriting are skipped, so a
  // collection is complete for spans pushed before the call as long as
  // fewer than capacity() spans were pushed since (the tracer collects at
  // request end, immediately after the request's own spans).
  void collect(std::uint64_t trace_id, std::vector<Span>& out) const;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  // Spans ever pushed (owner-maintained; racy read for observability).
  [[nodiscard]] std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    // 0 = never written; odd = write in progress; even > 0 = generation.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<std::uint32_t> tid{0};
    std::atomic<std::uint32_t> detail{0};
    std::atomic<std::uint8_t> stage{0};
  };

  std::vector<Slot> slots_;
  std::uint64_t head_ = 0;  // owner-only
  std::atomic<std::uint64_t> pushed_{0};
};

// The process-wide registry of rings. A thread's first recorded span leases
// a ring (creating one only when the free list is empty); the lease is
// returned at thread exit. Rings are never destroyed, so collect() may
// safely scan a ring whose last owner has exited — its spans stay readable
// until the ring is leased again and overwritten.
class RingRegistry {
 public:
  static constexpr std::size_t kRingCapacity = 512;

  // Never destroyed (leaked singleton): thread-exit hooks and late
  // collectors must outlive any static destruction order.
  static RingRegistry& instance();

  // The calling thread's leased ring; `tid` receives its stable index.
  SpanRing& local_ring(std::uint32_t& tid);

  // Scans every ring for spans of this trace.
  void collect(std::uint64_t trace_id, std::vector<Span>& out) const;

  [[nodiscard]] std::size_t num_rings() const;

 private:
  RingRegistry() = default;

  friend struct RingLease;
  std::uint32_t lease();
  void release(std::uint32_t tid);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::vector<std::uint32_t> free_;
};

}  // namespace lama::obs
