#include "svc/counters.hpp"

#include <cstdio>

namespace lama::svc {

namespace {

std::uint64_t load(const std::atomic<std::uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

}  // namespace

std::string Counters::stats_line() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu completed=%llu errors=%llu hits=%llu misses=%llu "
      "coalesced=%llu evictions=%llu uncached=%llu cached=%llu shed=%llu "
      "deadlined=%llu integrity_failures=%llu degraded=%llu "
      "invalidations=%llu remaps=%llu batched=%llu batch_jobs=%llu "
      "map_p50_us=%llu map_p99_us=%llu build_p99_us=%llu "
      "total_p99_us=%llu lookup_p50_us=%llu lookup_p99_us=%llu "
      "plan_hits=%llu plan_misses=%llu plan_compile_p99_us=%llu "
      "compiled_map_p50_us=%llu compiled_map_p99_us=%llu "
      "opt_requests=%llu opt_hits=%llu opt_misses=%llu opt_candidates=%llu "
      "opt_swaps=%llu opt_p99_us=%llu",
      static_cast<unsigned long long>(load(requests)),
      static_cast<unsigned long long>(load(completed)),
      static_cast<unsigned long long>(load(errors)),
      static_cast<unsigned long long>(load(cache_hits)),
      static_cast<unsigned long long>(load(cache_misses)),
      static_cast<unsigned long long>(load(coalesced)),
      static_cast<unsigned long long>(load(evictions)),
      static_cast<unsigned long long>(load(uncached)),
      static_cast<unsigned long long>(load(cached)),
      static_cast<unsigned long long>(load(shed)),
      static_cast<unsigned long long>(load(deadlined)),
      static_cast<unsigned long long>(load(integrity_failures)),
      static_cast<unsigned long long>(load(degraded)),
      static_cast<unsigned long long>(load(invalidations)),
      static_cast<unsigned long long>(load(remaps)),
      static_cast<unsigned long long>(load(batched)),
      static_cast<unsigned long long>(load(batch_jobs)),
      static_cast<unsigned long long>(map_ns.percentile_ns(50) / 1000),
      static_cast<unsigned long long>(map_ns.percentile_ns(99) / 1000),
      static_cast<unsigned long long>(build_ns.percentile_ns(99) / 1000),
      static_cast<unsigned long long>(total_ns.percentile_ns(99) / 1000),
      static_cast<unsigned long long>(lookup_ns.percentile_ns(50) / 1000),
      static_cast<unsigned long long>(lookup_ns.percentile_ns(99) / 1000),
      static_cast<unsigned long long>(load(plan_hits)),
      static_cast<unsigned long long>(load(plan_misses)),
      static_cast<unsigned long long>(plan_compile_ns.percentile_ns(99) /
                                      1000),
      static_cast<unsigned long long>(compiled_map_ns.percentile_ns(50) /
                                      1000),
      static_cast<unsigned long long>(compiled_map_ns.percentile_ns(99) /
                                      1000),
      static_cast<unsigned long long>(load(opt_requests)),
      static_cast<unsigned long long>(load(opt_hits)),
      static_cast<unsigned long long>(load(opt_misses)),
      static_cast<unsigned long long>(load(opt_candidates)),
      static_cast<unsigned long long>(load(opt_swaps)),
      static_cast<unsigned long long>(opt_ns.percentile_ns(99) / 1000));
  return buf;
}

std::string Counters::render() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "requests  %llu (completed %llu, errors %llu)\n",
                static_cast<unsigned long long>(load(requests)),
                static_cast<unsigned long long>(load(completed)),
                static_cast<unsigned long long>(load(errors)));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "tree cache  cached %llu (hits %llu, misses %llu, coalesced "
                "%llu), evictions %llu, uncached %llu\n",
                static_cast<unsigned long long>(load(cached)),
                static_cast<unsigned long long>(load(cache_hits)),
                static_cast<unsigned long long>(load(cache_misses)),
                static_cast<unsigned long long>(load(coalesced)),
                static_cast<unsigned long long>(load(evictions)),
                static_cast<unsigned long long>(load(uncached)));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "resilience  shed %llu, deadlined %llu, integrity %llu, "
                "degraded %llu, invalidations %llu, remaps %llu\n",
                static_cast<unsigned long long>(load(shed)),
                static_cast<unsigned long long>(load(deadlined)),
                static_cast<unsigned long long>(load(integrity_failures)),
                static_cast<unsigned long long>(load(degraded)),
                static_cast<unsigned long long>(load(invalidations)),
                static_cast<unsigned long long>(load(remaps)));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "batch  batched %llu, jobs %llu\n",
                static_cast<unsigned long long>(load(batched)),
                static_cast<unsigned long long>(load(batch_jobs)));
  out += buf;
  {
    const std::uint64_t hits = load(plan_hits);
    const std::uint64_t misses = load(plan_misses);
    const std::uint64_t consulted = hits + misses;
    std::snprintf(buf, sizeof(buf),
                  "plan cache  hits %llu, misses %llu, hit ratio %.1f%%\n",
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses),
                  consulted == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(consulted));
    out += buf;
  }
  {
    const std::uint64_t hits = load(opt_hits);
    const std::uint64_t misses = load(opt_misses);
    const std::uint64_t total = hits + misses;
    std::snprintf(buf, sizeof(buf),
                  "optimize  requests %llu (hits %llu, misses %llu, hit ratio "
                  "%.1f%%), candidates %llu, swaps %llu\n",
                  static_cast<unsigned long long>(load(opt_requests)),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses),
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(hits) /
                                   static_cast<double>(total),
                  static_cast<unsigned long long>(load(opt_candidates)),
                  static_cast<unsigned long long>(load(opt_swaps)));
    out += buf;
  }
  out += "lookup  " + lookup_ns.summary() + "\n";
  out += "build   " + build_ns.summary() + "\n";
  out += "map     " + map_ns.summary() + "\n";
  out += "compile " + plan_compile_ns.summary() + "\n";
  out += "cmap    " + compiled_map_ns.summary() + "\n";
  out += "opt     " + opt_ns.summary() + "\n";
  out += "total   " + total_ns.summary() + "\n";
  return out;
}

std::uint64_t NetCounters::active() const {
  const std::uint64_t opened = load(accepted);
  const std::uint64_t done = load(closed);
  return opened >= done ? opened - done : 0;
}

void NetStats::add(const NetCounters& shard) {
  accepted += load(shard.accepted);
  closed += load(shard.closed);
  rejected += load(shard.rejected);
  text_requests += load(shard.text_requests);
  binary_requests += load(shard.binary_requests);
  responses += load(shard.responses);
  shed_backpressure += load(shard.shed_backpressure);
  frame_errors += load(shard.frame_errors);
  midstream_disconnects += load(shard.midstream_disconnects);
  bytes_in += load(shard.bytes_in);
  bytes_out += load(shard.bytes_out);
  read_ns.merge(shard.read_ns.snapshot());
  dispatch_ns.merge(shard.dispatch_ns.snapshot());
  write_ns.merge(shard.write_ns.snapshot());
}

std::string NetStats::stats_line() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "net_accepted=%llu net_closed=%llu net_active=%llu net_rejected=%llu "
      "net_text_requests=%llu net_binary_requests=%llu net_responses=%llu "
      "net_shed=%llu net_frame_errors=%llu net_disconnects=%llu "
      "net_bytes_in=%llu net_bytes_out=%llu net_dispatch_p99_us=%llu",
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(closed),
      static_cast<unsigned long long>(active()),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(text_requests),
      static_cast<unsigned long long>(binary_requests),
      static_cast<unsigned long long>(responses),
      static_cast<unsigned long long>(shed_backpressure),
      static_cast<unsigned long long>(frame_errors),
      static_cast<unsigned long long>(midstream_disconnects),
      static_cast<unsigned long long>(bytes_in),
      static_cast<unsigned long long>(bytes_out),
      static_cast<unsigned long long>(dispatch_ns.percentile_ns(99) / 1000));
  return buf;
}

std::string NetStats::render() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "net  connections %llu accepted (%llu closed, %llu active, "
                "%llu rejected), disconnects %llu\n",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(closed),
                static_cast<unsigned long long>(active()),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(midstream_disconnects));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "net  requests %llu text + %llu binary -> %llu responses, "
                "shed %llu, frame errors %llu\n",
                static_cast<unsigned long long>(text_requests),
                static_cast<unsigned long long>(binary_requests),
                static_cast<unsigned long long>(responses),
                static_cast<unsigned long long>(shed_backpressure),
                static_cast<unsigned long long>(frame_errors));
  out += buf;
  std::snprintf(buf, sizeof(buf), "net  bytes in %llu, out %llu\n",
                static_cast<unsigned long long>(bytes_in),
                static_cast<unsigned long long>(bytes_out));
  out += buf;
  out += "net read     " + read_ns.summary() + "\n";
  out += "net dispatch " + dispatch_ns.summary() + "\n";
  out += "net write    " + write_ns.summary() + "\n";
  return out;
}

std::string NetCounters::stats_line() const {
  NetStats stats;
  stats.add(*this);
  return stats.stats_line();
}

std::string NetCounters::render() const {
  NetStats stats;
  stats.add(*this);
  return stats.render();
}

}  // namespace lama::svc
