// Metrics exposition. MetricsSnapshot is the single serializer both wire
// formats share: the service builds one snapshot of families and samples,
// and to_prometheus() / to_json() render the same data — the METRICS verb,
// `lamactl metrics --json`, and `lamactl stats --json` can never drift
// apart because they never re-enumerate the counters.
//
// LabeledCounter backs the per-layout and per-allocation-fingerprint series:
// a bounded labeled counter that folds overflow keys into "_other" so a
// client sending unique layouts cannot grow the exporter without bound.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lama::obs {

// One exported sample: `name<suffix>{labels...} value`. The suffix carries
// summary/histogram parts ("_sum", "_count", "_bucket"); plain counters
// leave it empty. A non-empty exemplar_trace renders an OpenMetrics-style
// exemplar after the value (` # {trace_id="<id>"} <exemplar_value>`) — used
// on histogram buckets to link the slowest recent sample to a TRACE id.
struct MetricSample {
  std::string suffix;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  std::string exemplar_trace;
  double exemplar_value = 0.0;
};

struct MetricFamily {
  std::string name;
  std::string help;
  std::string type;  // "counter" | "gauge" | "summary" | "histogram"
  std::vector<MetricSample> samples;
};

struct MetricsSnapshot {
  std::vector<MetricFamily> families;

  MetricFamily& add(std::string name, std::string help, std::string type);
  // Convenience: a single-sample counter/gauge family.
  void add_scalar(std::string name, std::string help, std::string type,
                  double value);

  // Prometheus text format, terminated by a "# EOF" line (the line protocol
  // uses it to frame the multi-line response).
  [[nodiscard]] std::string to_prometheus() const;
  // One JSON object; single unlabeled samples flatten to numbers, labeled
  // or summary families to nested objects.
  [[nodiscard]] std::string to_json() const;
};

// Nearest-rank quantile (q in [0, 1]) of a histogram given as cumulative
// (upper bound, count) buckets in ascending order, the last one holding the
// total — the shape of a Prometheus histogram's `_bucket` series. Returns
// the upper bound of the first bucket whose count reaches q × total (an
// infinite bound reads as the largest finite one); 0 when empty. The one
// quantile rule every latency figure (STATS, `lamactl top`) uses.
double bucket_quantile(
    const std::vector<std::pair<double, double>>& cumulative, double q);

// Escapes for the two formats (exposed for tests).
std::string prometheus_escape(const std::string& value);
std::string json_escape(const std::string& value);

class LabeledCounter {
 public:
  // At most `max_keys` distinct labels; further keys count under "_other".
  explicit LabeledCounter(std::size_t max_keys = 256);

  void increment(const std::string& key, std::uint64_t delta = 1);
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot()
      const;

 private:
  const std::size_t max_keys_;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counts_;
};

}  // namespace lama::obs
