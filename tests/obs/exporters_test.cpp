// Exporter tests: the Prometheus text rendering is checked against a golden
// file AND re-parsed with a small Prometheus text-format parser (so the
// golden file itself cannot lock in a syntax error); the JSON rendering and
// the Chrome trace-event export are validated with the mini JSON parser.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "common/mini_prom.hpp"
#include "obs/chrome.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace lama::obs {
namespace {

using test::parse_prometheus;
using test::PromSample;

// The fixed snapshot the golden file captures: one of each family shape the
// service emits (scalar counter, gauge, summary, labeled series) plus label
// values that need escaping.
MetricsSnapshot golden_snapshot() {
  MetricsSnapshot snapshot;
  snapshot.add_scalar("lama_requests_total", "Requests accepted", "counter",
                      42);
  snapshot.add_scalar("lama_uptime_seconds", "Seconds since service start",
                      "gauge", 1.5);
  MetricFamily& lookup =
      snapshot.add("lama_lookup_ns", "Tree-cache lookup latency", "summary");
  lookup.samples.push_back({"", {{"quantile", "0.5"}}, 120});
  lookup.samples.push_back({"", {{"quantile", "0.99"}}, 4096});
  lookup.samples.push_back({"_sum", {}, 1500000});
  lookup.samples.push_back({"_count", {}, 10});
  MetricFamily& by_layout = snapshot.add("lama_requests_by_layout_total",
                                         "Requests per layout", "counter");
  by_layout.samples.push_back({"", {{"layout", "scbnh"}}, 7});
  by_layout.samples.push_back({"", {{"layout", "q\"uo\\te\nnl"}}, 1});
  MetricFamily& stage = snapshot.add("lama_stage_latency_ns",
                                     "Per-stage span latency (ns)",
                                     "histogram");
  stage.samples.push_back({"_bucket",
                           {{"stage", "map_walk"}, {"le", "7"}},
                           2,
                           "000000000000002a",  // exemplar: trace 42, 6 ns
                           6});
  stage.samples.push_back(
      {"_bucket", {{"stage", "map_walk"}, {"le", "63"}}, 3});
  stage.samples.push_back(
      {"_bucket", {{"stage", "map_walk"}, {"le", "+Inf"}}, 3});
  stage.samples.push_back({"_sum", {{"stage", "map_walk"}}, 52});
  stage.samples.push_back({"_count", {{"stage", "map_walk"}}, 3});
  return snapshot;
}

std::size_t parse_prometheus_and_validate(const std::string& text) {
  return test::validate_histogram(parse_prometheus(text), "h");
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(LAMA_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open golden file: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(PrometheusExport, MatchesGoldenFile) {
  EXPECT_EQ(golden_snapshot().to_prometheus(),
            read_golden("metrics_prom.txt"));
}

TEST(PrometheusExport, ParsesWithTextFormatParser) {
  const std::vector<PromSample> samples =
      parse_prometheus(golden_snapshot().to_prometheus());
  ASSERT_EQ(samples.size(), 13u);
  EXPECT_EQ(samples[0].name, "lama_requests_total");
  EXPECT_EQ(samples[0].value, 42.0);
  EXPECT_EQ(samples[1].value, 1.5);
  EXPECT_EQ(samples[2].labels.at("quantile"), "0.5");
  EXPECT_EQ(samples[4].name, "lama_lookup_ns_sum");
  EXPECT_EQ(samples[4].value, 1500000.0);
  EXPECT_EQ(samples[6].labels.at("layout"), "scbnh");
  // The escaped label round-trips through the text format.
  EXPECT_EQ(samples[7].labels.at("layout"), "q\"uo\\te\nnl");
  // Histogram buckets with the OpenMetrics exemplar round-tripped.
  EXPECT_EQ(samples[8].name, "lama_stage_latency_ns_bucket");
  EXPECT_EQ(samples[8].labels.at("le"), "7");
  ASSERT_TRUE(samples[8].has_exemplar);
  EXPECT_EQ(samples[8].exemplar_labels.at("trace_id"), "000000000000002a");
  EXPECT_EQ(samples[8].exemplar_value, 6.0);
  EXPECT_FALSE(samples[9].has_exemplar);
  EXPECT_EQ(samples[10].labels.at("le"), "+Inf");
  EXPECT_EQ(samples[10].value, 3.0);
  EXPECT_EQ(samples[11].name, "lama_stage_latency_ns_sum");
  EXPECT_EQ(samples[12].name, "lama_stage_latency_ns_count");
  EXPECT_EQ(test::validate_histogram(samples, "lama_stage_latency_ns"), 1u);
}

TEST(PrometheusExport, HistogramValidatorRejectsBadSeries) {
  // Cumulative counts must not decrease...
  EXPECT_THROW(
      parse_prometheus_and_validate(
          "# HELP h x\n# TYPE h histogram\n"
          "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
          "h_bucket{le=\"+Inf\"} 5\nh_count 5\n# EOF\n"),
      std::runtime_error);
  // ...the +Inf bucket is mandatory...
  EXPECT_THROW(parse_prometheus_and_validate(
                   "# HELP h x\n# TYPE h histogram\n"
                   "h_bucket{le=\"1\"} 5\nh_count 5\n# EOF\n"),
               std::runtime_error);
  // ...and _count must equal the +Inf bucket.
  EXPECT_THROW(
      parse_prometheus_and_validate(
          "# HELP h x\n# TYPE h histogram\n"
          "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n"
          "# EOF\n"),
      std::runtime_error);
}

TEST(PrometheusExport, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_prometheus("lama_x 1\n# EOF\n"), std::runtime_error);
  EXPECT_THROW(parse_prometheus("# HELP lama_x h\n# TYPE lama_x counter\n"
                                "lama_x 1\n"),
               std::runtime_error);  // missing # EOF
  EXPECT_THROW(parse_prometheus("# HELP lama_x h\n# TYPE lama_x counter\n"
                                "lama_x{l=\"v} 1\n# EOF\n"),
               std::runtime_error);
}

TEST(JsonExport, ParsesAndMirrorsThePrometheusData) {
  const auto json = test::parse_json(golden_snapshot().to_json());
  ASSERT_TRUE(json->is_object());
  // Single unlabeled samples flatten to numbers.
  EXPECT_EQ(json->at("lama_requests_total").number, 42.0);
  EXPECT_EQ(json->at("lama_uptime_seconds").number, 1.5);
  // Summaries nest: quantiles keyed by label, _sum/_count by suffix.
  const auto& lookup = json->at("lama_lookup_ns");
  ASSERT_TRUE(lookup.is_object());
  EXPECT_EQ(lookup.at("quantile=0.5").number, 120.0);
  EXPECT_EQ(lookup.at("quantile=0.99").number, 4096.0);
  EXPECT_EQ(lookup.at("sum").number, 1500000.0);
  EXPECT_EQ(lookup.at("count").number, 10.0);
  const auto& by_layout = json->at("lama_requests_by_layout_total");
  EXPECT_EQ(by_layout.at("layout=scbnh").number, 7.0);
  EXPECT_EQ(by_layout.at("layout=q\"uo\\te\nnl").number, 1.0);
}

TEST(LabeledCounter, FoldsOverflowKeysIntoOther) {
  LabeledCounter counter(2);
  counter.increment("a");
  counter.increment("b", 3);
  counter.increment("c");      // over the cap -> _other
  counter.increment("d", 2);   // also _other
  counter.increment("a");      // existing key still counts normally
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [key, value] : counter.snapshot()) counts[key] = value;
  EXPECT_EQ(counts.at("a"), 2u);
  EXPECT_EQ(counts.at("b"), 3u);
  EXPECT_EQ(counts.at("_other"), 3u);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(ChromeExport, ProducesSchemaValidTraceEventJson) {
  Trace trace;
  trace.id = 42;
  trace.parent_id = 7;
  trace.begin_ns = 1'000'000'000;
  trace.end_ns = 1'000'500'000;
  trace.outcome = Outcome::kDegraded;
  Span root;
  root.trace_id = 42;
  root.start_ns = trace.begin_ns;
  root.end_ns = trace.end_ns;
  root.stage = Stage::kRequest;
  Span lookup;
  lookup.trace_id = 42;
  lookup.start_ns = 1'000'010'000;
  lookup.end_ns = 1'000'020'000;
  lookup.detail = 1;
  lookup.stage = Stage::kLookup;
  Span candidate;
  candidate.trace_id = 42;
  candidate.start_ns = 1'000'030'000;
  candidate.end_ns = 1'000'100'500;
  candidate.tid = 3;
  candidate.detail = 2;
  candidate.stage = Stage::kOptCandidate;
  trace.spans = {root, lookup, candidate};

  const std::string text = to_chrome_json(trace);
  EXPECT_EQ(text.find('\n'), std::string::npos);  // one line for the wire

  const auto json = test::parse_json(text);
  const auto& events = json->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 3u);
  for (const auto& event : events.array) {
    EXPECT_TRUE(event->at("name").is_string());
    EXPECT_EQ(event->at("cat").string, "lama");
    EXPECT_EQ(event->at("ph").string, "X");  // complete events only
    EXPECT_TRUE(event->at("ts").is_number());
    EXPECT_TRUE(event->at("dur").is_number());
    EXPECT_EQ(event->at("pid").number, 1.0);
    EXPECT_TRUE(event->at("tid").is_number());
    EXPECT_TRUE(event->at("args").at("detail").is_number());
  }
  EXPECT_EQ(events.at(0).at("name").string, "request");
  EXPECT_EQ(events.at(0).at("ts").number, 0.0);       // relative to begin_ns
  EXPECT_EQ(events.at(0).at("dur").number, 500.0);    // 500000 ns = 500 us
  EXPECT_EQ(events.at(1).at("name").string, "cache_lookup");
  EXPECT_EQ(events.at(1).at("ts").number, 10.0);
  EXPECT_EQ(events.at(2).at("name").string, "opt_candidate");
  EXPECT_EQ(events.at(2).at("dur").number, 70.5);     // sub-us precision
  EXPECT_EQ(events.at(2).at("tid").number, 3.0);

  const auto& other = json->at("otherData");
  EXPECT_EQ(other.at("trace_id").string, "42");
  EXPECT_EQ(other.at("parent_id").string, "7");
  EXPECT_EQ(other.at("outcome").string, "degraded");
  EXPECT_EQ(other.at("duration_ns").string, "500000");
}

TEST(MiniJson, RejectsMalformedDocuments) {
  EXPECT_THROW(test::parse_json("{\"a\":1"), std::runtime_error);
  EXPECT_THROW(test::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(test::parse_json("{\"a\":1} x"), std::runtime_error);
  EXPECT_THROW(test::parse_json("\"\\q\""), std::runtime_error);
}

}  // namespace
}  // namespace lama::obs
