#include "oracle.hpp"

#include <algorithm>
#include <charconv>
#include <set>
#include <stdexcept>

#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace perfbench {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string excerpt(std::string_view s) {
  std::string out(s.substr(0, 96));
  std::replace(out.begin(), out.end(), '\n', '|');
  return out;
}

// The value of " key=" in a reply, up to the next space or newline.
std::string_view field(std::string_view reply, std::string_view key) {
  std::string pattern = " ";
  pattern.append(key);
  pattern += '=';
  const std::size_t at = reply.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pattern.size();
  const std::size_t end = reply.find_first_of(" \n", begin);
  return reply.substr(begin, end == std::string_view::npos ? end : end - begin);
}

bool parse_csv(std::string_view text, std::vector<std::size_t>& out) {
  out.clear();
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    std::size_t v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{}) return false;
    out.push_back(v);
    p = next;
    if (p < end && *p++ != ',') return false;
  }
  return !out.empty();
}

bool parse_number(std::string_view text, double& out) {
  const auto [next, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && next == text.data() + text.size();
}

}  // namespace

void compute_expected(Workload& w) {
  lama::svc::MappingService oracle({.workers = 0, .compile_plans = false});
  lama::svc::ProtocolSession session(oracle);
  auto run = [&](const Op& op) {
    if (op.verb == WireVerb::kRemap || op.verb == WireVerb::kOptimize) return;
    const lama::svc::WireCommand cmd = lama::svc::split_wire_payload(op.payload);
    lama::svc::ViewStream more(cmd.continuation);
    std::string reply = session.execute(std::string(cmd.line), more);
    const bool ok = op.verb == WireVerb::kMapBatch
                        ? reply.find(" err=0\n") != std::string::npos
                        : starts_with(reply, "OK ");
    if (!ok) {
      throw std::runtime_error("oracle rejected '" + excerpt(op.payload) +
                               "': " + excerpt(reply));
    }
    if (op.expect != kNone) w.expected[op.expect] = std::move(reply);
  };
  for (const Op& op : w.define) run(op);
  for (const Op& op : w.warm) run(op);
  for (const Op& op : w.prep) run(op);
  for (const std::vector<Op>& round : w.rounds) {
    for (const Op& op : round) run(op);
  }
}

bool parse_placements(std::string_view reply, Placements& out) {
  return parse_csv(field(reply, "nodes"), out.node) &&
         parse_csv(field(reply, "pus"), out.pu) &&
         out.node.size() == out.pu.size();
}

ReplyChecker::ReplyChecker(const Workload& w)
    : w_(w), gains_(w.opt_cases.size(), -1.0) {}

bool ReplyChecker::check(const Op& op, std::string_view reply,
                         std::string& why) {
  switch (op.verb) {
    case WireVerb::kNode:
      if (starts_with(reply, "OK node ")) return true;
      break;
    case WireVerb::kMap:
    case WireVerb::kMapBatch:
      if (reply != w_.expected[op.expect]) {
        why = std::string(lama::svc::wire_verb_keyword(op.verb)) +
              " reply differs from the oracle: got '" + excerpt(reply) + "', expected '" +
              excerpt(w_.expected[op.expect]) + "'";
        return false;
      }
      if (op.verb == WireVerb::kMap && !parse_placements(reply, baseline_[op.alloc])) {
        why = "MAP reply without placements";
        return false;
      }
      return true;
    case WireVerb::kOffline:
      if (starts_with(reply, "OK offline ")) return true;
      break;
    case WireVerb::kOnline:
      if (starts_with(reply, "OK online ")) return true;
      break;
    case WireVerb::kRemap:
      return check_remap(op, reply, why);
    case WireVerb::kOptimize:
      return check_optimize(op, reply, why);
    default:
      break;
  }
  why = std::string(lama::svc::wire_verb_keyword(op.verb)) + " failed: " + excerpt(reply);
  return false;
}

bool ReplyChecker::check_remap(const Op& op, std::string_view reply,
                               std::string& why) {
  const auto base = baseline_.find(op.alloc);
  Placements got;
  if (!starts_with(reply, "OK remap ") || !parse_placements(reply, got)) {
    why = "REMAP failed: " + excerpt(reply);
    return false;
  }
  if (base == baseline_.end() || base->second.node.size() != got.node.size()) {
    why = "REMAP answered " + std::to_string(got.node.size()) +
          " ranks for a baseline it does not match";
    return false;
  }
  std::set<std::size_t> displaced;
  const std::string_view moved = field(reply, "displaced");
  if (moved != "-") {
    std::vector<std::size_t> ranks;
    if (!parse_csv(moved, ranks)) {
      why = "REMAP displaced= unreadable: " + excerpt(reply);
      return false;
    }
    displaced.insert(ranks.begin(), ranks.end());
  }
  const Failure& f = w_.failures[op.failure];
  for (std::size_t r = 0; r < got.node.size(); ++r) {
    const bool failed =
        got.node[r] == f.node &&
        (f.pus.empty() || std::binary_search(f.pus.begin(), f.pus.end(), got.pu[r]));
    if (failed) {
      why = "REMAP left rank " + std::to_string(r) + " on a failed resource";
      return false;
    }
    if (displaced.count(r) == 0 && (got.node[r] != base->second.node[r] ||
                                    got.pu[r] != base->second.pu[r])) {
      why = "REMAP moved surviving rank " + std::to_string(r);
      return false;
    }
  }
  base->second = std::move(got);
  return true;
}

// The OPTIMIZE'd allocations are fully online whenever an OPTIMIZE is sent
// (warm allocations never fail; churn optimizes after ONLINE), so a PU is
// online exactly when it exists.
bool ReplyChecker::check_optimize(const Op& op, std::string_view reply,
                                  std::string& why) {
  const OptCase& c = w_.opt_cases[op.opt];
  const AllocSpec& alloc = w_.alloc(c.alloc);
  Placements got;
  double cost = 0, baseline = 0, gain = 0;
  if (!starts_with(reply, "OK optimize hit=") || !parse_placements(reply, got) ||
      !parse_number(field(reply, "cost"), cost) ||
      !parse_number(field(reply, "static"), baseline) ||
      !parse_number(field(reply, "improvement"), gain)) {
    why = "OPTIMIZE failed: " + excerpt(reply);
    return false;
  }
  if (field(reply, "hit") != (op.hit ? "1" : "0")) {
    why = std::string("OPTIMIZE expected a cache ") + (op.hit ? "hit" : "miss");
    return false;
  }
  if (got.node.size() != c.np) {
    why = "OPTIMIZE placed " + std::to_string(got.node.size()) + " of " +
          std::to_string(c.np) + " ranks";
    return false;
  }
  for (std::size_t r = 0; r < got.node.size(); ++r) {
    if (got.node[r] >= alloc.node_pus.size() ||
        got.pu[r] >= alloc.node_pus[got.node[r]]) {
      why = "OPTIMIZE placed rank " + std::to_string(r) + " on no PU";
      return false;
    }
  }
  if (cost > baseline) {
    why = "OPTIMIZE cost exceeds the static layout's";
    return false;
  }
  double& seen = gains_[op.opt];
  if (seen >= 0 && seen != gain) {
    why = "OPTIMIZE answered a case differently than before";
    return false;
  }
  seen = gain;
  return true;
}

}  // namespace perfbench
