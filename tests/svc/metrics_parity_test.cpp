// STATS <-> Prometheus parity: both renderings are views of the same
// metrics snapshot, and every counter must be visible — with the same value
// — in both. The test drives one workload through a quiesced
// single-threaded session, takes STATS and METRICS back to back, and audits
// the mapping in both directions: every mapped STATS key must appear in the
// exposition with an equal value, every `_us` key must be its stage's
// quantile of the exposition's stage histogram, and every exported
// lama_*_total scalar must be the target of some STATS key, so a counter
// added to one surface cannot silently skip the other.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/mini_prom.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/slo.hpp"

namespace lama::svc {
namespace {

constexpr const char* kFigure2Topo =
    "(node (socket@0 (core@0 (pu@0) (pu@1)) (core@1 (pu@2) (pu@3))) "
    "(socket@1 (core@2 (pu@4) (pu@5)) (core@3 (pu@6) (pu@7))))";

std::string execute(ProtocolSession& session, const std::string& line) {
  std::istringstream more;
  return session.execute(line, more);
}

// "STATS key=value key=value ..." -> {key: value}.
std::map<std::string, std::string> parse_stats(const std::string& response) {
  EXPECT_TRUE(starts_with(response, "STATS "));
  std::map<std::string, std::string> out;
  for (const std::string& token : split(trim(response.substr(6)), ' ')) {
    const std::size_t eq = token.find('=');
    EXPECT_NE(eq, std::string::npos) << token;
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

// The audited mapping. STATS keys on the left, exposition names on the
// right; the pairs cover every counter both surfaces export.
const std::vector<std::pair<std::string, std::string>>& parity_pairs() {
  static const std::vector<std::pair<std::string, std::string>> pairs = {
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
      {"plan_hits", "lama_plan_cache_hits_total"},
      {"plan_misses", "lama_plan_cache_misses_total"},
      {"opt_requests", "lama_opt_requests_total"},
      {"opt_hits", "lama_opt_hits_total"},
      {"opt_misses", "lama_opt_misses_total"},
      {"opt_candidates", "lama_opt_candidates_total"},
      {"opt_swaps", "lama_opt_swaps_total"},
      {"cache_trees", "lama_cache_trees"},
      {"cache_plans", "lama_cache_plans"},
      {"cache_opts", "lama_cache_opts"},
      {"traces_started", "lama_traces_started_total"},
      {"traces_assembled", "lama_traces_assembled_total"},
      {"trace_dumps", "lama_trace_dumps_total"},
      {"traces_tail", "lama_traces_tail_total"},
  };
  return pairs;
}

// Each `_us` STATS key: the stage of lama_stage_latency_ns it reads, and
// the quantile.
const std::vector<std::tuple<std::string, std::string, double>>&
stage_quantile_keys() {
  static const std::vector<std::tuple<std::string, std::string, double>>
      keys = {
          {"map_p50_us", "map_walk", 0.5},
          {"map_p99_us", "map_walk", 0.99},
          {"build_p99_us", "tree_build", 0.99},
          {"total_p99_us", "request", 0.99},
          {"lookup_p50_us", "cache_lookup", 0.5},
          {"lookup_p99_us", "cache_lookup", 0.99},
          {"plan_compile_p99_us", "plan_compile", 0.99},
          {"compiled_map_p50_us", "plan_exec", 0.5},
          {"compiled_map_p99_us", "plan_exec", 0.99},
          {"opt_p99_us", "optimize", 0.99},
      };
  return keys;
}

TEST(MetricsParity, EveryCounterAgreesAcrossStatsAndPrometheus) {
  ServiceConfig config;
  config.workers = 0;
  config.flight_recorder = 16;
  config.trace_sample = 1;
  config.slo = parse_slo_spec("query=1s,mapbatch=1s");
  MappingService service(config);
  ProtocolSession session(service);

  // A workload that moves most counters off zero: cache miss + hit, an
  // uncached baseline, a batch, an optimizer miss + hit.
  execute(session, "NODE a 8 " + std::string(kFigure2Topo));
  execute(session, "MAP a 4 lama:scbnh");
  execute(session, "MAP a 4 lama:scbnh");
  execute(session, "MAP a 2 byslot");
  execute(session, "MAPBATCH 2 a/2/lama:scbnh a/4/byslot");
  execute(session, "OPTIMIZE a 12 pattern=halo:65536");
  execute(session, "OPTIMIZE a 12 pattern=halo:65536");

  // Back to back on a quiesced service: no writer can move a counter
  // between the two reads (read verbs do not trace or count).
  const std::map<std::string, std::string> stats =
      parse_stats(execute(session, "STATS"));
  const std::vector<test::PromSample> samples =
      test::parse_prometheus(execute(session, "METRICS"));

  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<std::pair<double, double>>> stages;
  for (const test::PromSample& s : samples) {
    if (s.labels.empty()) scalars[s.name] = s.value;
    if (s.name == "lama_stage_latency_ns_bucket") {
      const std::string& le = s.labels.at("le");
      stages[s.labels.at("stage")].emplace_back(
          le == "+Inf" ? std::numeric_limits<double>::infinity()
                       : std::stod(le),
          s.value);
    }
  }

  // Direction 1: every mapped STATS key is exported with the same value.
  for (const auto& [stats_key, metric] : parity_pairs()) {
    ASSERT_TRUE(stats.count(stats_key)) << stats_key;
    ASSERT_TRUE(scalars.count(metric)) << metric;
    EXPECT_EQ(std::stod(stats.at(stats_key)), scalars.at(metric))
        << stats_key << " vs " << metric;
  }
  EXPECT_GT(scalars.at("lama_requests_total"), 0.0);
  EXPECT_GT(scalars.at("lama_opt_hits_total"), 0.0);

  // Direction 1b: every `_us` key is its stage's quantile, in µs with three
  // decimals. The workload ran every one of those stages.
  for (const auto& [stats_key, stage, q] : stage_quantile_keys()) {
    ASSERT_TRUE(stats.count(stats_key)) << stats_key;
    ASSERT_TRUE(stages.count(stage)) << stage;
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%.3f",
                  obs::bucket_quantile(stages.at(stage), q) / 1000.0);
    EXPECT_EQ(stats.at(stats_key), expected) << stats_key;
    EXPECT_GT(std::stod(stats.at(stats_key)), 0.0) << stats_key;
  }

  // Direction 2a: every exported lama_*_total scalar traces back to a
  // STATS key — a counter cannot exist in the exposition only.
  std::set<std::string> mapped_metrics;
  for (const auto& [stats_key, metric] : parity_pairs()) {
    mapped_metrics.insert(metric);
  }
  for (const auto& [name, value] : scalars) {
    if (name.size() < 6 ||
        name.compare(name.size() - 6, 6, "_total") != 0) {
      continue;
    }
    EXPECT_TRUE(mapped_metrics.count(name))
        << name << " is exported but has no STATS twin in the parity table";
  }

  // Direction 2b: every STATS key traces forward. Keys outside the table
  // must belong to one of the known non-counter groups: the stage
  // quantiles (checked above), the uptime gauge (changes between the two
  // reads), and the per-verb SLO keys (exported as labeled families,
  // checked below).
  for (const auto& [key, value] : stats) {
    if (key == "uptime_s") continue;
    bool stage_key = false;
    for (const auto& [stats_key, stage, q] : stage_quantile_keys()) {
      if (stats_key == key) stage_key = true;
    }
    if (stage_key) continue;
    if (starts_with(key, "slo_")) continue;
    bool mapped = false;
    for (const auto& [stats_key, metric] : parity_pairs()) {
      if (stats_key == key) mapped = true;
    }
    EXPECT_TRUE(mapped)
        << key << " is in STATS but has no Prometheus twin in the table";
  }

  // SLO keys pair with the labeled lama_slo_* families.
  std::map<std::string, std::map<std::string, double>> slo_by_verb;
  for (const test::PromSample& s : samples) {
    if (s.labels.count("verb") && !s.labels.count("window")) {
      slo_by_verb[s.labels.at("verb")][s.name] = s.value;
    }
  }
  for (const char* verb : {"query", "mapbatch"}) {
    ASSERT_TRUE(stats.count("slo_" + std::string(verb) + "_good")) << verb;
    EXPECT_EQ(std::stod(stats.at("slo_" + std::string(verb) + "_good")),
              slo_by_verb.at(verb).at("lama_slo_good_total"));
    EXPECT_EQ(std::stod(stats.at("slo_" + std::string(verb) + "_bad")),
              slo_by_verb.at(verb).at("lama_slo_bad_total"));
  }
}

TEST(MetricsParity, NetCountersAgreeWhenAttached) {
  // The net counters are written by the event loop; here they are attached
  // and bumped directly so the parity check stays single-threaded.
  MappingService service({.workers = 0});
  NetCounters net;
  net.accepted.store(5);
  net.closed.store(3);
  net.text_requests.store(40);
  net.binary_requests.store(2);
  net.responses.store(42);
  net.bytes_in.store(4096);
  net.bytes_out.store(16384);
  service.attach_net(&net);

  ProtocolSession session(service);
  const std::map<std::string, std::string> stats =
      parse_stats(execute(session, "STATS"));
  std::map<std::string, double> scalars;
  for (const test::PromSample& s :
       test::parse_prometheus(execute(session, "METRICS"))) {
    if (s.labels.empty()) scalars[s.name] = s.value;
  }

  const std::vector<std::pair<std::string, std::string>> pairs = {
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
  };
  for (const auto& [stats_key, metric] : pairs) {
    ASSERT_TRUE(stats.count(stats_key)) << stats_key;
    ASSERT_TRUE(scalars.count(metric)) << metric;
    EXPECT_EQ(std::stod(stats.at(stats_key)), scalars.at(metric))
        << stats_key << " vs " << metric;
  }
}

TEST(MetricsParity, ShardedNetCountersAggregateBothDirections) {
  // Three attached shards with distinct values, bumped directly so the
  // aggregation is audited single-threaded. Direction 1: the aggregate
  // STATS keys are the sums and the csv split lists each shard. Direction
  // 2: the exposition's shard-labeled families carry the same per-shard
  // values and sum back to the aggregate scalar.
  MappingService service({.workers = 0});
  NetCounters shard0;
  NetCounters shard1;
  NetCounters shard2;
  shard0.text_requests.store(10);
  shard0.responses.store(10);
  shard0.accepted.store(3);
  shard0.closed.store(1);
  shard1.binary_requests.store(7);
  shard1.responses.store(7);
  shard1.accepted.store(2);
  shard1.closed.store(2);
  shard2.text_requests.store(1);
  shard2.binary_requests.store(1);
  shard2.responses.store(2);
  service.attach_net(&shard0);
  service.attach_net(&shard1);
  service.attach_net(&shard2);

  ProtocolSession session(service);
  const std::map<std::string, std::string> stats =
      parse_stats(execute(session, "STATS"));
  EXPECT_EQ(stats.at("net_text_requests"), "11");
  EXPECT_EQ(stats.at("net_binary_requests"), "8");
  EXPECT_EQ(stats.at("net_responses"), "19");
  EXPECT_EQ(stats.at("net_accepted"), "5");
  EXPECT_EQ(stats.at("net_active"), "2");  // (3-1) + (2-2) + 0
  EXPECT_EQ(stats.at("net_shards"), "3");
  EXPECT_EQ(stats.at("net_shard_requests"), "10,7,2");
  EXPECT_EQ(stats.at("net_shard_conns"), "2,0,0");

  const std::vector<test::PromSample> samples =
      test::parse_prometheus(execute(session, "METRICS"));
  std::map<std::string, double> scalars;
  std::map<std::string, std::map<std::string, double>> by_shard;
  for (const test::PromSample& s : samples) {
    if (s.labels.empty()) scalars[s.name] = s.value;
    if (s.labels.count("shard")) by_shard[s.name][s.labels.at("shard")] = s.value;
  }
  EXPECT_EQ(scalars.at("lama_net_shards"), 3.0);
  EXPECT_EQ(scalars.at("lama_net_responses_total"), 19.0);
  const auto& reqs = by_shard.at("lama_net_shard_requests_total");
  EXPECT_EQ(reqs.at("0"), 10.0);
  EXPECT_EQ(reqs.at("1"), 7.0);
  EXPECT_EQ(reqs.at("2"), 2.0);
  double labeled_sum = 0;
  for (const auto& [label, value] : reqs) labeled_sum += value;
  EXPECT_EQ(labeled_sum, scalars.at("lama_net_text_requests_total") +
                             scalars.at("lama_net_binary_requests_total"));
  EXPECT_EQ(by_shard.at("lama_net_shard_active_connections").at("0"), 2.0);

  // Detaching one shard shrinks both surfaces consistently; dropping to a
  // single shard removes the sharded-only keys and families entirely.
  service.detach_net(&shard1);
  const std::map<std::string, std::string> after =
      parse_stats(execute(session, "STATS"));
  EXPECT_EQ(after.at("net_shards"), "2");
  EXPECT_EQ(after.at("net_shard_requests"), "10,2");
  EXPECT_EQ(after.at("net_responses"), "12");
  service.detach_net(&shard2);
  const std::map<std::string, std::string> solo =
      parse_stats(execute(session, "STATS"));
  EXPECT_EQ(solo.count("net_shards"), 0u);
  EXPECT_EQ(solo.at("net_text_requests"), "10");
  for (const test::PromSample& s :
       test::parse_prometheus(execute(session, "METRICS"))) {
    EXPECT_EQ(s.labels.count("shard"), 0u) << s.name;
  }
}

}  // namespace
}  // namespace lama::svc
