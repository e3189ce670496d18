#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace lama::obs {

namespace {

// Counters are integral and must round-trip exactly; quantiles keep a few
// significant digits. %g on an integral double prints no trailing zeros.
std::string format_value(double value) {
  char buf[64];
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  return buf;
}

}  // namespace

double bucket_quantile(
    const std::vector<std::pair<double, double>>& cumulative, double q) {
  if (cumulative.empty() || cumulative.back().second <= 0.0) return 0.0;
  const double rank = q * cumulative.back().second;
  double finite = 0.0;
  for (const auto& [le, count] : cumulative) {
    if (std::isinf(le)) break;
    finite = le;
    if (count >= rank) break;
  }
  return finite;
}

std::string prometheus_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

MetricFamily& MetricsSnapshot::add(std::string name, std::string help,
                                   std::string type) {
  families.push_back(
      {std::move(name), std::move(help), std::move(type), {}});
  return families.back();
}

void MetricsSnapshot::add_scalar(std::string name, std::string help,
                                 std::string type, double value) {
  MetricFamily& family = add(std::move(name), std::move(help), std::move(type));
  family.samples.push_back({"", {}, value});
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream out;
  for (const MetricFamily& family : families) {
    out << "# HELP " << family.name << ' ' << family.help << '\n';
    out << "# TYPE " << family.name << ' ' << family.type << '\n';
    for (const MetricSample& sample : family.samples) {
      out << family.name << sample.suffix;
      if (!sample.labels.empty()) {
        out << '{';
        bool first = true;
        for (const auto& [key, value] : sample.labels) {
          if (!first) out << ',';
          first = false;
          out << key << "=\"" << prometheus_escape(value) << '"';
        }
        out << '}';
      }
      out << ' ' << format_value(sample.value);
      if (!sample.exemplar_trace.empty()) {
        // OpenMetrics exemplar: the trace id of the slowest recent sample
        // observed in this bucket, resolvable via the TRACE verb.
        out << " # {trace_id=\"" << prometheus_escape(sample.exemplar_trace)
            << "\"} " << format_value(sample.exemplar_value);
      }
      out << '\n';
    }
  }
  out << "# EOF\n";
  return out.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << '{';
  bool first_family = true;
  for (const MetricFamily& family : families) {
    if (!first_family) out << ',';
    first_family = false;
    out << '"' << json_escape(family.name) << "\":";
    if (family.samples.size() == 1 && family.samples[0].suffix.empty() &&
        family.samples[0].labels.empty()) {
      out << format_value(family.samples[0].value);
      continue;
    }
    out << '{';
    bool first_sample = true;
    for (const MetricSample& sample : family.samples) {
      if (!first_sample) out << ',';
      first_sample = false;
      // The key mirrors the Prometheus identity: suffix and/or label
      // values, joined — unique within a family by construction.
      std::string key = sample.suffix;
      if (!key.empty() && key.front() == '_') key.erase(0, 1);
      for (const auto& [label, value] : sample.labels) {
        if (!key.empty()) key += ',';
        key += label + "=" + value;
      }
      out << '"' << json_escape(key) << "\":" << format_value(sample.value);
    }
    out << '}';
  }
  out << '}';
  return out.str();
}

LabeledCounter::LabeledCounter(std::size_t max_keys)
    : max_keys_(max_keys == 0 ? 1 : max_keys) {}

void LabeledCounter::increment(const std::string& key, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(key);
  if (it != counts_.end()) {
    it->second += delta;
    return;
  }
  if (counts_.size() >= max_keys_) {
    counts_["_other"] += delta;
    return;
  }
  counts_.emplace(key, delta);
}

std::vector<std::pair<std::string, std::uint64_t>> LabeledCounter::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {counts_.begin(), counts_.end()};
}

}  // namespace lama::obs
