// The traced mode's span log and per-layer ledger. Spans are recorded by the
// benchmark around calls into each layer's public entry point (from outside
// the program), kept in memory, and written once at the end as Chrome
// trace-event JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal: the verb or the layer
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  // The request id is its socket round trip's span id: every span of a
  // request carries it, and a layer span names that span as its parent.
  std::uint64_t request = 0;
  std::uint64_t parent = 0;  // 0 for the request span itself
  std::uint64_t id = 0;
};

class SpanLog {
 public:
  // Keeps at most `cap` spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  // Records one span and returns its id (ids start at 1). parent 0 records
  // a request span; otherwise `parent` is the request span's id.
  std::uint64_t add(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t parent);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events, microsecond timestamps relative to
  // the first span); false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::uint64_t next_id_ = 1;
};

// Self time of each layer of a call chain, outermost first: its inclusive
// time minus the inclusive time of the next layer in. The innermost layer's
// self time is its inclusive time.
std::vector<double> self_times(const std::vector<double>& inclusive);

}  // namespace perfbench
