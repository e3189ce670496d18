#include "svc/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "cluster/alloc_serialize.hpp"
#include "dur/state_store.hpp"
#include "sim/traffic.hpp"
#include "lama/layout.hpp"
#include "obs/chrome.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "topo/serialize.hpp"

namespace lama::svc {

namespace {

std::size_t decimal_digits(std::size_t value) {
  std::size_t digits = 1;
  for (; value >= 10; value /= 10) ++digits;
  return digits;
}

// Appends "v0,v1,..." for value_of(0..n-1), written straight into the
// string's buffer: the string is grown ahead of the cursor (into its whole
// reserved capacity first), so each number costs one to_chars and one
// bounds check instead of an append call.
template <typename ValueOf>
void append_list(std::string& out, std::size_t n, ValueOf value_of) {
  constexpr std::size_t kMaxEntry = 21;  // ',' + 20 digits
  std::size_t pos = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (out.size() - pos < kMaxEntry) {
      out.resize(std::max(out.capacity(), pos + kMaxEntry));
    }
    char* p = out.data() + pos;
    if (i > 0) *p++ = ',';
    p = std::to_chars(p, out.data() + out.size(),
                      static_cast<std::size_t>(value_of(i)))
            .ptr;
    pos = static_cast<std::size_t>(p - out.data());
  }
  out.resize(pos);
}

// The one writer of a reply's per-rank columns: " nodes=<node,...>
// pus=<representative PU,...>" straight from the result. It reserves once
// for both lists — every node index below the node count, every PU inside
// the PU column's stride — plus the labels, one entry's headroom and a
// short tail; an empty PU set prints npos and merely grows the string.
void append_rank_columns(std::string& out, const MappingResult& m) {
  const std::size_t node_digits =
      decimal_digits(std::max<std::size_t>(m.procs_per_node.size(), 1) - 1);
  const std::size_t pu_digits = decimal_digits(m.pu_stride() * 64 - 1);
  out.reserve(out.size() + 48 +
              m.num_procs() * (node_digits + pu_digits + 2));
  out += " nodes=";
  append_list(out, m.num_procs(), [&](std::size_t r) { return m.node(r); });
  out += " pus=";
  append_list(out, m.num_procs(),
              [&](std::size_t r) { return m.representative_pu(r); });
}

// Appends one MAP reply in format_map_response's grammar.
void append_map_response(std::string& out, const MapResponse& response) {
  if (response.busy) {
    out += "ERR busy retry-after=" + std::to_string(response.retry_after_ms);
    return;
  }
  if (!response.ok()) {
    out += "ERR " + response.error;
    return;
  }
  char head[96];
  std::snprintf(head, sizeof(head), "OK hit=%d coalesced=%d np=%zu sweeps=%zu",
                response.cache_hit ? 1 : 0, response.coalesced ? 1 : 0,
                response.mapping.num_procs(), response.mapping.sweeps);
  out += head;
  append_rank_columns(out, response.mapping);
  if (response.degraded) out += " degraded=1";
  if (response.binding.has_value()) {
    const std::vector<ProcessBinding>& b = response.binding->bindings;
    out += " widths=";
    append_list(out, b.size(), [&](std::size_t i) { return b[i].width; });
  }
}

}  // namespace

// The session state behind execute(): named allocations (parsed eagerly from
// NODE lines so OFFLINE/ONLINE can mutate availability in place), their
// epochs, and the last successful lama mapping per allocation for REMAP.
struct ProtocolSession::Impl {
  explicit Impl(MappingService& svc) : service(svc) {}

  // The most recent lama mapping served for an allocation — the state REMAP
  // re-places after an availability change.
  struct LastMap {
    ProcessLayout layout{std::vector<ResourceType>{ResourceType::kNode}};
    MapOptions opts;
    MappingResult mapping;
  };

  struct AllocEntry {
    Allocation current;        // availability edits apply here
    std::uint64_t epoch = 0;   // bumped by NODE/OFFLINE/ONLINE
    InternedAlloc interned;    // lazy snapshot of `current` at `epoch`
    bool dirty = true;
    std::optional<LastMap> last;
    // The last canonical MAP line journaled for this allocation and the
    // epoch it was journaled under: the same line at the same epoch yields
    // the same baseline, so repeat MAPs (the warm path) are not journaled.
    std::string journaled_map_line;
    std::uint64_t journaled_map_epoch = 0;
  };

  MappingService& service;
  std::map<std::string, AllocEntry> allocs;

  // Durability (dur/state_store.hpp): null when serving without persistence.
  dur::StateStore* store = nullptr;
  // True while restored lines replay — replay must not re-journal itself.
  bool replaying = false;
  RecoveryInfo recovery;

  AllocEntry& entry(const std::string& id) {
    const auto it = allocs.find(id);
    if (it == allocs.end()) {
      throw ParseError("unknown allocation id '" + id +
                       "' (define it with NODE lines first)");
    }
    return it->second;
  }

  // Interning is lazy and re-done after any availability change: a MAP after
  // an OFFLINE sees the reduced allocation (and a new fingerprint, so cached
  // trees from the old epoch can never serve it).
  const InternedAlloc& interned(AllocEntry& e) {
    if (e.dirty) {
      e.interned = service.intern(e.current, e.epoch);
      e.dirty = false;
    }
    return e.interned;
  }

  // An availability change starts a new epoch: drop the stale trees now
  // (their fingerprint will never be requested again) and force re-intern.
  void bump_epoch(AllocEntry& e) {
    if (e.interned.valid()) service.invalidate(e.interned.fingerprint);
    e.epoch += 1;
    e.dirty = true;
  }

  MapRequest parse_map_command(const std::vector<std::string>& tokens);
  MapRequest parse_mapbatch_job(const std::string& job);
  std::string handle_node(const std::vector<std::string>& tokens,
                          const std::string& trimmed);
  std::string handle_availability(const std::vector<std::string>& tokens,
                                  bool offline);
  std::string handle_remap(const std::vector<std::string>& tokens,
                           std::size_t& served, obs::Outcome& outcome);
  std::string handle_optimize(const std::vector<std::string>& tokens,
                              std::istream& more, std::size_t& served,
                              obs::Outcome& outcome);
  std::string handle_trace(const std::vector<std::string>& tokens);
  std::string handle_health() const;
  void record_last_map(const std::string& id, const MapRequest& request,
                       MapResponse&& response);

  // Durability plumbing. persist() seals one accepted mutation into the
  // journal (a no-op without a store, and during replay) and rotates a
  // compacting snapshot when enough mutations accumulated. Journal trouble
  // degrades — it is counted and surfaced through HEALTH, never thrown.
  std::uint64_t digest() const;
  std::vector<std::string> dump_lines() const;
  void persist(const std::string& line);
  bool apply_restore_line(const std::string& raw, std::string& error);
  void restore_epoch(const std::vector<std::string>& tokens);
  void restore_last(const std::vector<std::string>& tokens);
};

// Fingerprint of the full control-plane state: every field a snapshot
// preserves and replay rebuilds, nothing more — so a state restored from
// snapshot+journal hashes identically to one replayed from genesis. The
// serialized topology carries the availability ('!') flags, so OFFLINE and
// ONLINE move the digest.
std::uint64_t ProtocolSession::Impl::digest() const {
  std::uint64_t h = fnv1a64("lama-dur-v1");
  for (const auto& [id, e] : allocs) {
    h = hash_combine(h, fnv1a64(id));
    h = hash_combine(h, e.epoch);
    for (std::size_t i = 0; i < e.current.num_nodes(); ++i) {
      const AllocatedNode& node = e.current.node(i);
      h = hash_combine(h, node.slots);
      h = hash_combine(h, fnv1a64(serialize_topology(node.topo)));
    }
    if (!e.last.has_value()) {
      h = hash_combine(h, 0);
      continue;
    }
    h = hash_combine(h, 1);
    h = hash_combine(h, fnv1a64(e.last->layout.to_string()));
    h = hash_combine(h, e.last->opts.np);
    h = hash_combine(h, e.last->opts.allow_oversubscribe ? 1 : 0);
    h = hash_combine(h, e.last->opts.pus_per_proc);
    h = hash_combine(h, e.last->opts.resource_caps[static_cast<std::size_t>(
                            canonical_depth(ResourceType::kNode))]);
    h = hash_combine(h, e.last->mapping.sweeps);
    const MappingResult& m = e.last->mapping;
    for (std::size_t r = 0; r < m.num_procs(); ++r) {
      h = hash_combine(h, r);
      h = hash_combine(h, m.node(r));
      h = hash_combine(h, fnv1a64(m.pus(r).to_string()));
    }
  }
  return h;
}

// The session state as restorable lines — what write_snapshot compacts. NODE
// replay rebuilds the allocations (availability flags ride in the serialized
// topology); the #EPOCH directive pins the exact epoch (NODE replay alone
// would undercount it) and #LAST pins the remap baseline without re-running
// the mapping.
std::vector<std::string> ProtocolSession::Impl::dump_lines() const {
  std::vector<std::string> lines;
  for (const auto& [id, e] : allocs) {
    for (std::size_t i = 0; i < e.current.num_nodes(); ++i) {
      const AllocatedNode& node = e.current.node(i);
      lines.push_back("NODE " + id + " " + std::to_string(node.slots) + " " +
                      serialize_topology(node.topo));
    }
    lines.push_back("#EPOCH " + id + " " + std::to_string(e.epoch));
    if (!e.last.has_value()) continue;
    const MappingResult& m = e.last->mapping;
    std::string placements;
    for (std::size_t r = 0; r < m.num_procs(); ++r) {
      if (r > 0) placements += ';';
      placements += std::to_string(r) + ":" + std::to_string(m.node(r)) +
                    ":" + m.pus(r).to_string();
    }
    const std::size_t cap = e.last->opts.resource_caps[static_cast<std::size_t>(
        canonical_depth(ResourceType::kNode))];
    lines.push_back(
        "#LAST " + id + " layout=" + e.last->layout.to_string() +
        " np=" + std::to_string(e.last->opts.np) +
        " oversub=" + std::to_string(e.last->opts.allow_oversubscribe ? 1 : 0) +
        " pus=" + std::to_string(e.last->opts.pus_per_proc) +
        " npernode=" + std::to_string(cap) +
        " sweeps=" + std::to_string(e.last->mapping.sweeps) +
        " placements=" + placements);
  }
  return lines;
}

void ProtocolSession::Impl::persist(const std::string& line) {
  if (store == nullptr || replaying) return;
  const std::uint64_t state_digest = digest();
  store->record(line, state_digest);
  if (store->should_snapshot()) {
    store->write_snapshot(dump_lines(), state_digest);
  }
}

// "#EPOCH <id> <n>": pin the allocation's epoch to its pre-crash value.
void ProtocolSession::Impl::restore_epoch(
    const std::vector<std::string>& tokens) {
  if (tokens.size() != 3) throw ParseError("#EPOCH needs '<id> <epoch>'");
  AllocEntry& e = entry(tokens[1]);
  e.epoch = parse_size(tokens[2], "#EPOCH value");
  e.dirty = true;
}

// "#LAST <id> layout=... np=... oversub=... pus=... npernode=... sweeps=...
// placements=rank:node:pus;...": rebuild the remap baseline exactly as the
// writer recorded it, without re-running the mapping. A result's rank is its
// index, so the line must carry exactly np placements, ranks 0..np-1 in
// order — the form dump_lines writes.
void ProtocolSession::Impl::restore_last(
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) throw ParseError("#LAST needs '<id> key=value ...'");
  AllocEntry& e = entry(tokens[1]);
  LastMap last;
  std::vector<std::string> placements;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ParseError("#LAST field must be key=value: '" + tokens[i] + "'");
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "layout") {
      last.layout = ProcessLayout::parse(value);
      last.mapping.layout = last.layout.to_string();
    } else if (key == "np") {
      last.opts.np = parse_size_bounded(value, "#LAST np", kMaxNp);
    } else if (key == "oversub") {
      last.opts.allow_oversubscribe = parse_size(value, "#LAST oversub") != 0;
    } else if (key == "pus") {
      last.opts.pus_per_proc =
          parse_size_bounded(value, "#LAST pus", kMaxPusPerProc);
    } else if (key == "npernode") {
      const std::size_t cap =
          parse_size_bounded(value, "#LAST npernode", kMaxNp);
      if (cap > 0) last.opts.set_cap(ResourceType::kNode, cap);
    } else if (key == "sweeps") {
      last.mapping.sweeps = parse_size(value, "#LAST sweeps");
    } else if (key == "placements") {
      placements.clear();
      for (std::string& field : split(value, ';')) {
        if (!field.empty()) placements.push_back(std::move(field));
      }
    } else {
      throw ParseError("unknown #LAST field '" + key + "'");
    }
  }
  const std::size_t np = last.opts.np;
  if (placements.size() != np) {
    throw ParseError("#LAST carries " + std::to_string(placements.size()) +
                     " placements for np=" + std::to_string(np));
  }
  MappingResult& m = last.mapping;
  m.reset_ranks(np, 1, 0);
  m.procs_per_node.assign(e.current.num_nodes(), 0);
  for (std::size_t r = 0; r < np; ++r) {
    const std::vector<std::string> parts = split(placements[r], ':');
    if (parts.size() < 2) {
      throw ParseError("#LAST placement needs 'rank:node:pus'");
    }
    const std::size_t rank = parse_size_bounded(parts[0], "#LAST rank", kMaxNp);
    if (rank != r) {
      throw ParseError("#LAST placement " + std::to_string(r) +
                       " names rank " + std::to_string(rank) +
                       " (ranks must run 0..np-1 in order)");
    }
    const std::size_t node =
        parse_size_bounded(parts[1], "#LAST node", kMaxNodesPerAlloc);
    if (node >= e.current.num_nodes()) {
      throw ParseError("#LAST placement node out of range");
    }
    m.set_node(r, node);
    if (parts.size() >= 3 && !parts[2].empty()) {
      m.set_pus(r, Bitmap::parse(parts[2]));
    }
    ++m.procs_per_node[node];
  }
  e.last = std::move(last);
}

// One restored line: the snapshot/journal directives, or a regular mutation
// replayed through the same handlers that served it originally (MAP re-runs
// the deterministic mapping, which doubles as cache warming). Returns false
// with a bounded reason when the line cannot apply — recovery notes it and
// keeps going.
bool ProtocolSession::Impl::apply_restore_line(const std::string& raw,
                                               std::string& error) {
  const std::string trimmed = trim(raw);
  if (trimmed.empty()) return true;
  const std::vector<std::string> tokens = split_ws(trimmed);
  try {
    if (tokens[0] == "#EPOCH") {
      restore_epoch(tokens);
      return true;
    }
    if (tokens[0] == "#LAST") {
      restore_last(tokens);
      return true;
    }
    if (tokens[0] == "NODE") {
      handle_node(tokens, trimmed);
      return true;
    }
    if (tokens[0] == "OFFLINE" || tokens[0] == "ONLINE") {
      handle_availability(tokens, tokens[0] == "OFFLINE");
      return true;
    }
    if (tokens[0] == "MAP") {
      const MapRequest request = parse_map_command(tokens);
      MapResponse response = service.map(request);
      if (!response.ok()) {
        error = response.error.empty() ? "busy" : response.error;
        return false;
      }
      record_last_map(tokens[1], request, std::move(response));
      return true;
    }
    if (tokens[0] == "REMAP") {
      std::size_t unused_served = 0;
      obs::Outcome unused_outcome = obs::Outcome::kOk;
      const std::string out =
          handle_remap(tokens, unused_served, unused_outcome);
      if (!starts_with(out, "OK")) {
        error = out;
        return false;
      }
      return true;
    }
    error = "unknown restored line '" + tokens[0] + "'";
    return false;
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
}

// The HEALTH reply: liveness (the reply itself), readiness (status=),
// recovery status, and journal durability at a glance. Grammar documented in
// docs/resilience.md; keys only ever append. Served even while draining —
// an orchestrator must be able to watch the drain finish.
std::string ProtocolSession::Impl::handle_health() const {
  char head[192];
  std::snprintf(head, sizeof(head),
                "OK health status=%s uptime_s=%.1f persist=%d allocs=%zu "
                "state_digest=%016llx",
                service.draining() ? "draining" : "ready", service.uptime_s(),
                store != nullptr ? 1 : 0, allocs.size(),
                static_cast<unsigned long long>(digest()));
  char rec[160];
  std::snprintf(rec, sizeof(rec),
                " recovered=%d recovery_ok=%d recovered_records=%zu "
                "torn_tail=%d prewarmed=%zu",
                recovery.recovered ? 1 : 0, recovery.self_check_ok ? 1 : 0,
                recovery.snapshot_lines + recovery.journal_records,
                recovery.torn_tail ? 1 : 0, recovery.prewarmed);
  char jrn[192];
  if (store != nullptr) {
    const dur::StoreStats s = store->stats();
    std::snprintf(jrn, sizeof(jrn),
                  " journal_records=%llu journal_lag=%llu journal_errors=%llu "
                  "snapshot_seq=%llu snapshots=%llu",
                  static_cast<unsigned long long>(s.journal.appended),
                  static_cast<unsigned long long>(store->journal_lag()),
                  static_cast<unsigned long long>(s.journal.write_errors +
                                                  s.journal.fsync_errors),
                  static_cast<unsigned long long>(store->snapshot_seq()),
                  static_cast<unsigned long long>(s.snapshots));
  } else {
    std::snprintf(jrn, sizeof(jrn),
                  " journal_records=0 journal_lag=0 journal_errors=0 "
                  "snapshot_seq=0 snapshots=0");
  }
  return std::string(head) + rec + jrn;
}

// "MAP <alloc-id> <np> <spec> [key=value ...]" -> a service request. Every
// numeric field is bounds-checked: a hostile count answers ERR instead of
// sizing a vector.
MapRequest ProtocolSession::Impl::parse_map_command(
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 4) {
    throw ParseError("MAP needs '<alloc-id> <np> <spec>'");
  }
  MapRequest request;
  request.alloc = interned(entry(tokens[1]));
  request.opts.np = parse_size_bounded(tokens[2], "MAP process count", kMaxNp);
  request.spec = tokens[3];
  for (std::size_t i = 4; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ParseError("MAP option must be key=value: '" + tokens[i] + "'");
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "oversub") {
      request.opts.allow_oversubscribe =
          parse_size(value, "MAP oversub") != 0;
    } else if (key == "pus") {
      request.opts.pus_per_proc =
          parse_size_bounded(value, "MAP pus", kMaxPusPerProc);
    } else if (key == "npernode") {
      request.opts.set_cap(ResourceType::kNode,
                           parse_size_bounded(value, "MAP npernode", kMaxNp));
    } else if (key == "bind") {
      request.binding = BindingPolicy{parse_bind_target(value)};
    } else if (key == "timeout") {
      request.timeout_ms = static_cast<std::uint32_t>(
          parse_size_bounded(value, "MAP timeout", kMaxTimeoutMs));
    } else {
      throw ParseError("unknown MAP option '" + key + "'");
    }
  }
  return request;
}

// One MAPBATCH job: "<alloc-id>/<np>/<spec>[/key=value]...". '/' separates
// the fields because a job must stay a single whitespace token on the
// MAPBATCH line (the spec itself contains ':', never '/'). The fields after
// the split are exactly a MAP line's tokens, so parsing is shared — and so
// are the bounds checks.
MapRequest ProtocolSession::Impl::parse_mapbatch_job(const std::string& job) {
  std::vector<std::string> tokens = {"MAP"};
  std::size_t pos = 0;
  while (pos <= job.size()) {
    const auto slash = job.find('/', pos);
    const std::string field =
        job.substr(pos, slash == std::string::npos ? std::string::npos
                                                   : slash - pos);
    if (field.empty()) {
      throw ParseError("MAPBATCH job has an empty field: '" + job + "'");
    }
    tokens.push_back(field);
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  if (tokens.size() < 4) {
    throw ParseError("MAPBATCH job needs '<alloc-id>/<np>/<spec>': '" + job +
                     "'");
  }
  return parse_map_command(tokens);
}

std::string ProtocolSession::Impl::handle_node(
    const std::vector<std::string>& tokens, const std::string& trimmed) {
  if (tokens.size() < 4) {
    throw ParseError("NODE needs '<alloc-id> <slots> <topology>'");
  }
  // Validate the slot count before handing the line to the allocation
  // parser, so protocol bounds apply.
  parse_size_bounded(tokens[2], "NODE slots", kMaxSlots);
  // Re-join the topology expression (it may contain spaces).
  const auto topo_at = trimmed.find('(');
  if (topo_at == std::string::npos) {
    throw ParseError("NODE line has no topology s-expression");
  }
  Allocation parsed =
      parse_allocation(tokens[2] + " " + trimmed.substr(topo_at));
  AllocEntry& e = allocs[tokens[1]];
  if (e.current.num_nodes() >= kMaxNodesPerAlloc) {
    throw ParseError("allocation '" + tokens[1] + "' exceeds " +
                     std::to_string(kMaxNodesPerAlloc) + " nodes");
  }
  AllocatedNode node = std::move(parsed.mutable_node(0));
  node.cluster_index = e.current.num_nodes();
  e.current.add(std::move(node));
  bump_epoch(e);
  persist(trimmed);
  return "OK node " + tokens[1] + " n=" + std::to_string(e.current.num_nodes());
}

// OFFLINE/ONLINE <alloc-id> <node> [pu...]: without PU indices the whole
// node object is toggled; with them, individual leaves. ONLINE re-enables
// exactly what the matching OFFLINE disabled — a PU under a dead node stays
// unusable until the node itself comes back.
std::string ProtocolSession::Impl::handle_availability(
    const std::vector<std::string>& tokens, bool offline) {
  const char* verb = offline ? "OFFLINE" : "ONLINE";
  if (tokens.size() < 3) {
    throw ParseError(std::string(verb) + " needs '<alloc-id> <node> [pu...]'");
  }
  AllocEntry& e = entry(tokens[1]);
  const std::size_t node = parse_size_bounded(
      tokens[2], std::string(verb) + " node index", e.current.num_nodes() - 1);
  NodeTopology& topo = e.current.mutable_node(node).topo;
  std::vector<std::size_t> pus;
  for (std::size_t i = 3; i < tokens.size(); ++i) {
    pus.push_back(parse_size_bounded(
        tokens[i], std::string(verb) + " pu index", topo.pu_count() - 1));
  }
  if (pus.empty()) {
    topo.set_object_disabled(ResourceType::kNode, 0, offline);
  } else {
    for (const std::size_t pu : pus) {
      topo.set_object_disabled(topo.leaf_type(), pu, offline);
    }
  }
  bump_epoch(e);
  persist(join(tokens, " "));
  std::string out = std::string("OK ") + (offline ? "offline" : "online") +
                    " " + tokens[1] + " node=" + std::to_string(node) +
                    " epoch=" + std::to_string(e.epoch);
  if (!pus.empty()) {
    out += " pus=";
    append_list(out, pus.size(), [&](std::size_t i) { return pus[i]; });
  }
  return out;
}

// REMAP <alloc-id> [timeout=ms]: re-place this allocation's last lama
// mapping onto its current (reduced) availability. Survivors keep their
// PUs; only displaced ranks move (lama/remap.hpp).
std::string ProtocolSession::Impl::handle_remap(
    const std::vector<std::string>& tokens, std::size_t& served,
    obs::Outcome& outcome) {
  if (tokens.size() < 2) {
    throw ParseError("REMAP needs '<alloc-id> [timeout=ms]'");
  }
  AllocEntry& e = entry(tokens[1]);
  if (!e.last.has_value()) {
    throw ParseError("no previous lama mapping for '" + tokens[1] +
                     "' (run 'MAP " + tokens[1] + " <np> lama[:layout]' first)");
  }
  RemapRequest request;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    const std::string key =
        eq == std::string::npos ? tokens[i] : tokens[i].substr(0, eq);
    if (eq == std::string::npos || key != "timeout") {
      throw ParseError("unknown REMAP option '" + tokens[i] + "'");
    }
    request.timeout_ms = static_cast<std::uint32_t>(parse_size_bounded(
        tokens[i].substr(eq + 1), "REMAP timeout", kMaxTimeoutMs));
  }
  request.alloc = interned(e);
  request.layout = e.last->layout;
  request.opts = e.last->opts;
  request.previous = &e.last->mapping;

  MapResponse response = service.remap(request);
  outcome = response.outcome;
  ++served;
  if (!response.ok()) {
    if (response.busy) {
      return "ERR busy retry-after=" + std::to_string(response.retry_after_ms);
    }
    return "ERR " + response.error;
  }
  const std::vector<int>& displaced = response.displaced;
  std::string out = "OK remap epoch=" + std::to_string(e.epoch) +
                    " np=" + std::to_string(response.mapping.num_procs()) +
                    " surviving=" + std::to_string(response.surviving) +
                    " displaced=" + (displaced.empty() ? "-" : "");
  append_list(out, displaced.size(),
              [&](std::size_t i) { return displaced[i]; });
  out += response.degraded ? " degraded=1" : " degraded=0";
  append_rank_columns(out, response.mapping);
  // The remapped placement becomes the baseline for the next REMAP. The
  // journal records the verb alone (no timeout= — a runtime knob, not
  // state): replaying it re-runs the same deterministic re-placement.
  e.last->mapping = std::move(response.mapping);
  persist("REMAP " + tokens[1]);
  return out;
}

// OPTIMIZE <alloc-id> <np> pattern=...|matrix=<nlines> [options]: search the
// placement space for np processes against a communication matrix. The
// matrix arrives either as a named sim pattern (shared vocabulary with
// lamactl) or as framed payload lines read from `more`, BATCH-style — edges
// or dense rows, with the "np" header implied by the command's <np> token.
std::string ProtocolSession::Impl::handle_optimize(
    const std::vector<std::string>& tokens, std::istream& more,
    std::size_t& served, obs::Outcome& outcome) {
  if (tokens.size() < 4) {
    throw ParseError(
        "OPTIMIZE needs '<alloc-id> <np> pattern=<name>[:<bytes>]' or "
        "'<alloc-id> <np> matrix=<nlines>'");
  }
  AllocEntry& e = entry(tokens[1]);
  const std::size_t np =
      parse_size_bounded(tokens[2], "OPTIMIZE process count", kMaxOptNp);
  if (np < 2) throw ParseError("OPTIMIZE needs np >= 2");

  OptimizeRequest request;
  std::shared_ptr<const CommMatrix> matrix;
  for (std::size_t i = 3; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ParseError("OPTIMIZE option must be key=value: '" + tokens[i] +
                       "'");
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "pattern" || key == "matrix") {
      if (matrix != nullptr) {
        throw ParseError("OPTIMIZE takes exactly one pattern= or matrix=");
      }
    }
    if (key == "pattern") {
      matrix = std::make_shared<const CommMatrix>(CommMatrix::from_pattern(
          make_named_pattern(value, static_cast<int>(np))));
      if (static_cast<std::size_t>(matrix->np()) != np) {
        throw ParseError("pattern '" + value + "' hosts " +
                         std::to_string(matrix->np()) + " processes, not " +
                         std::to_string(np));
      }
    } else if (key == "matrix") {
      const std::size_t lines = parse_size_bounded(
          value, "OPTIMIZE matrix line count", kMaxOptMatrixLines);
      // The payload is framed like BATCH: exactly `lines` continuation
      // lines, consumed here so the session stays line-synchronized even
      // when the matrix itself fails to parse.
      std::string text = "np " + std::to_string(np) + "\n";
      std::string payload_line;
      for (std::size_t j = 0; j < lines; ++j) {
        if (!std::getline(more, payload_line)) {
          throw ParseError("OPTIMIZE matrix ended early: expected " +
                           std::to_string(lines) + " lines, got " +
                           std::to_string(j));
        }
        text += payload_line;
        text += '\n';
      }
      matrix = std::make_shared<const CommMatrix>(CommMatrix::parse(text));
    } else if (key == "budget") {
      request.budget.max_candidates = parse_size_bounded(
          value, "OPTIMIZE budget", kMaxOptCandidates);
      if (request.budget.max_candidates == 0) {
        throw ParseError("OPTIMIZE budget must be >= 1");
      }
    } else if (key == "passes") {
      request.budget.refine_passes =
          parse_size_bounded(value, "OPTIMIZE passes", kMaxOptPasses);
    } else if (key == "timeout") {
      request.timeout_ms = static_cast<std::uint32_t>(
          parse_size_bounded(value, "OPTIMIZE timeout", kMaxTimeoutMs));
    } else if (key == "threads") {
      request.threads =
          parse_size_bounded(value, "OPTIMIZE threads", kMaxOptThreads);
    } else {
      throw ParseError("unknown OPTIMIZE option '" + key + "'");
    }
  }
  if (matrix == nullptr) {
    throw ParseError("OPTIMIZE needs a pattern= or matrix= source");
  }
  request.alloc = interned(e);
  request.matrix = std::move(matrix);

  const OptimizeResponse response = service.optimize(request);
  outcome = response.outcome;
  ++served;
  if (!response.ok()) {
    if (response.busy) {
      return "ERR busy retry-after=" + std::to_string(response.retry_after_ms);
    }
    return "ERR " + response.error;
  }
  const opt::OptimizeResult& result = *response.result;
  char numbers[160];
  std::snprintf(numbers, sizeof(numbers),
                " cost=%.0f static=%.0f improvement=%.4f",
                result.cost_ns, result.best_layout_cost_ns,
                result.improvement());
  std::string out =
      "OK optimize hit=" + std::to_string(response.cache_hit ? 1 : 0) +
      " np=" + std::to_string(result.mapping.num_procs()) + numbers +
      " source=" + result.source + " layout=" + result.best_layout +
      " candidates=" + std::to_string(result.candidates_evaluated) +
      " swaps=" + std::to_string(result.refine_swaps);
  append_rank_columns(out, result.mapping);
  return out;
}

// TRACE <id>|last|errors: one retained trace from the flight recorder,
// rendered as a single line of Chrome trace-event JSON.
std::string ProtocolSession::Impl::handle_trace(
    const std::vector<std::string>& tokens) {
  obs::Tracer* tracer = service.tracer();
  if (tracer == nullptr) {
    throw ParseError(
        "tracing is disabled (serve with --flight-recorder=N to enable)");
  }
  if (tokens.size() != 2) throw ParseError("TRACE needs '<id>|last|errors'");
  std::optional<obs::Trace> trace;
  if (tokens[1] == "last") {
    trace = tracer->recorder().last();
  } else if (tokens[1] == "errors") {
    trace = tracer->recorder().last_failure();
  } else {
    trace = tracer->recorder().by_id(parse_size(tokens[1], "TRACE id"));
  }
  if (!trace.has_value()) {
    throw ParseError("no retained trace for '" + tokens[1] +
                     "' (sampled 1/" +
                     std::to_string(tracer->config().sample_every) +
                     "; failures always retained)");
  }
  return "TRACE id=" + std::to_string(trace->id) + " " +
         obs::to_chrome_json(*trace);
}

// Remember the mapping REMAP would re-place: the last successful,
// non-batched lama MAP per allocation. The baseline is state, so it is
// journaled — as the canonical MAP line (only the options that shape the
// mapping), deduped per (line, epoch): the repeated identical MAP that
// dominates warm traffic re-derives the same baseline and is not journaled,
// but the same line after an availability change is, since the mapping
// differs on the reduced allocation.
void ProtocolSession::Impl::record_last_map(const std::string& id,
                                            const MapRequest& request,
                                            MapResponse&& response) {
  if (!response.ok()) return;
  const auto [name, args] = split_rmaps_spec(request.spec);
  if (name != "lama") return;
  LastMap last;
  last.layout = ProcessLayout::parse(args.empty() ? kLamaDefaultLayout : args);
  last.opts = request.opts;
  last.mapping = std::move(response.mapping);
  AllocEntry& e = allocs[id];
  e.last = std::move(last);
  if (store == nullptr) return;
  std::string canonical =
      "MAP " + id + " " + std::to_string(request.opts.np) + " " +
      request.spec +
      " oversub=" + std::to_string(request.opts.allow_oversubscribe ? 1 : 0) +
      " pus=" + std::to_string(request.opts.pus_per_proc);
  const std::size_t cap = request.opts.resource_caps[static_cast<std::size_t>(
      canonical_depth(ResourceType::kNode))];
  if (cap > 0) canonical += " npernode=" + std::to_string(cap);
  if (canonical != e.journaled_map_line || e.epoch != e.journaled_map_epoch) {
    e.journaled_map_line = canonical;
    e.journaled_map_epoch = e.epoch;
    persist(canonical);
  }
}

ProtocolSession::ProtocolSession(MappingService& service)
    : impl_(std::make_unique<Impl>(service)) {}

ProtocolSession::~ProtocolSession() = default;

std::uint64_t ProtocolSession::state_digest() const { return impl_->digest(); }

std::vector<std::string> ProtocolSession::snapshot_lines() const {
  return impl_->dump_lines();
}

ProtocolSession::RecoveryInfo ProtocolSession::restore_from(
    dur::StateStore& store) {
  RecoveryInfo info;
  info.attempted = true;
  impl_->store = &store;
  dur::RestoreResult restored = store.restore();
  info.warnings = std::move(restored.warnings);
  info.torn_tail = restored.torn_tail;
  info.snapshot_lines = restored.snapshot_lines.size();
  info.journal_records = restored.journal_lines.size();
  info.recovered =
      !restored.snapshot_lines.empty() || !restored.journal_lines.empty();

  // Replay: snapshot lines rebuild the compacted state, journal lines re-run
  // every mutation since. A line that cannot apply is noted and skipped —
  // recovery never refuses to start.
  impl_->replaying = true;
  for (const std::vector<std::string>* lines :
       {&restored.snapshot_lines, &restored.journal_lines}) {
    for (const std::string& line : *lines) {
      std::string error;
      if (!impl_->apply_restore_line(line, error)) {
        ++info.replay_errors;
        info.warnings.push_back("cannot replay '" + line + "': " + error);
      }
    }
  }
  impl_->replaying = false;

  // Self-check: the rebuilt state must hash to the digest the last sealed
  // record carried. A mismatch is reported (HEALTH recovery_ok=0), not fatal
  // — the operator decides whether a diverged replica may serve.
  if (restored.have_digest) {
    const std::uint64_t rebuilt = impl_->digest();
    info.self_check_ok = rebuilt == restored.expected_digest;
    if (!info.self_check_ok) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "recovery self-check failed: rebuilt digest %016llx != "
                    "sealed %016llx",
                    static_cast<unsigned long long>(rebuilt),
                    static_cast<unsigned long long>(restored.expected_digest));
      info.warnings.push_back(buf);
    }
  }

  // Cache pre-warm: re-run each restored allocation's last mapping so the
  // tree/plan caches are hot before the first client request. Replayed MAP
  // lines already warmed their entries; this covers baselines restored from
  // #LAST alone.
  if (store.config().prewarm) {
    for (auto& [id, e] : impl_->allocs) {
      if (!e.last.has_value()) continue;
      MapRequest request;
      try {
        request.alloc = impl_->interned(e);
      } catch (const std::exception& err) {
        info.warnings.push_back("cannot prewarm '" + id + "': " + err.what());
        continue;
      }
      request.spec = "lama:" + e.last->layout.to_string();
      request.opts = e.last->opts;
      if (impl_->service.map(request).ok()) ++info.prewarmed;
    }
  }

  impl_->recovery = info;
  return info;
}

std::string ProtocolSession::execute(const std::string& line,
                                     std::istream& more) {
  const std::string trimmed = trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return "";
  const std::vector<std::string> tokens = split_ws(trimmed);
  const std::string& cmd = tokens[0];
  // Draining: every working verb sheds with the standard busy reply (the
  // retrying client backs off and finds the replacement process); reads and
  // QUIT keep serving so an orchestrator can watch the drain finish.
  if (impl_->service.draining() && cmd != "STATS" && cmd != "METRICS" &&
      cmd != "TRACE" && cmd != "HEALTH" && cmd != "QUIT") {
    return "ERR busy retry-after=" +
           std::to_string(impl_->service.config().retry_after_ms) + "\n";
  }
  try {
    if (cmd == "NODE") {
      return impl_->handle_node(tokens, trimmed) + "\n";
    }
    if (cmd == "MAP") {
      // The protocol owns the request trace so parse and reply are covered;
      // the service's own scope (run_counted) defers to it.
      obs::TraceScope trace_scope(&impl_->service.stage_stats(),
                                 impl_->service.tracer());
      const std::uint64_t parse_span = obs::span_begin();
      const MapRequest request = impl_->parse_map_command(tokens);
      obs::span_end(obs::Stage::kParse, 0, parse_span);
      MapResponse response = impl_->service.map(request);
      ++served_;
      trace_scope.set_outcome(response.outcome);
      // Format first: the result then moves into the REMAP baseline.
      std::string out;
      {
        const obs::SpanScope reply_span(obs::Stage::kReply);
        append_map_response(out, response);
        out += '\n';
      }
      impl_->record_last_map(tokens[1], request, std::move(response));
      return out;
    }
    if (cmd == "BATCH") {
      if (tokens.size() != 2) throw ParseError("BATCH needs '<count>'");
      const std::size_t count =
          parse_size_bounded(tokens[1], "BATCH count", kMaxBatch);
      // A MAP line that fails to parse becomes an ERR response in its slot
      // without aborting the batch.
      std::vector<std::optional<MapRequest>> slots;
      std::vector<std::string> parse_errors(count);
      slots.reserve(count);
      std::string batch_line;
      for (std::size_t i = 0; i < count; ++i) {
        if (!std::getline(more, batch_line)) {
          throw ParseError("BATCH ended early: expected " +
                           std::to_string(count) + " MAP lines, got " +
                           std::to_string(i));
        }
        try {
          const std::vector<std::string> map_tokens =
              split_ws(trim(batch_line));
          if (map_tokens.empty() || map_tokens[0] != "MAP") {
            throw ParseError("BATCH expects MAP lines, got: '" +
                             trim(batch_line) + "'");
          }
          slots.push_back(impl_->parse_map_command(map_tokens));
        } catch (const Error& e) {
          slots.push_back(std::nullopt);
          parse_errors[i] = e.what();
        }
      }
      std::vector<MapRequest> requests;
      for (const auto& slot : slots) {
        if (slot.has_value()) requests.push_back(*slot);
      }
      const std::vector<MapResponse> responses =
          impl_->service.map_batch(requests);
      std::string out;
      std::size_t next = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (slots[i].has_value()) {
          append_map_response(out, responses[next++]);
          ++served_;
        } else {
          out += "ERR " + parse_errors[i];
        }
        out += '\n';
      }
      return out;
    }
    if (cmd == "MAPBATCH") {
      obs::TraceScope trace_scope(&impl_->service.stage_stats(),
                                 impl_->service.tracer());
      if (tokens.size() < 2) {
        throw ParseError("MAPBATCH needs '<count> <job>...'");
      }
      const std::size_t count =
          parse_size_bounded(tokens[1], "MAPBATCH count", kMaxBatch);
      if (tokens.size() != 2 + count) {
        throw ParseError("MAPBATCH declares " + std::to_string(count) +
                         " jobs but carries " +
                         std::to_string(tokens.size() - 2));
      }
      // Per-job error isolation: a job that fails to parse answers ERR in
      // its own JOB line; the rest of the batch executes normally.
      const std::uint64_t parse_span = obs::span_begin();
      std::vector<std::optional<MapRequest>> slots;
      std::vector<std::string> parse_errors(count);
      slots.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        try {
          slots.push_back(impl_->parse_mapbatch_job(tokens[2 + i]));
        } catch (const Error& e) {
          slots.push_back(std::nullopt);
          parse_errors[i] = e.what();
        }
      }
      obs::span_end(obs::Stage::kParse, static_cast<std::uint32_t>(count),
                    parse_span);
      std::vector<MapRequest> requests;
      for (const auto& slot : slots) {
        if (slot.has_value()) requests.push_back(*slot);
      }
      const std::vector<MapResponse> responses =
          impl_->service.map_batch(requests);
      const obs::SpanScope reply_span(
          obs::Stage::kReply, static_cast<std::uint32_t>(count));
      std::string out;
      std::size_t ok_jobs = 0;
      std::size_t next = 0;
      for (std::size_t i = 0; i < count; ++i) {
        out += "JOB " + std::to_string(i) + " ";
        const std::size_t reply_start = out.size();
        if (slots[i].has_value()) {
          append_map_response(out, responses[next++]);
          ++served_;
        } else {
          out += "ERR " + parse_errors[i];
        }
        if (out.compare(reply_start, 2, "OK") == 0) ++ok_jobs;
        out += '\n';
      }
      out += "OK mapbatch jobs=" + std::to_string(count) +
             " ok=" + std::to_string(ok_jobs) +
             " err=" + std::to_string(count - ok_jobs) + "\n";
      trace_scope.set_outcome(ok_jobs == count ? obs::Outcome::kOk
                                               : obs::Outcome::kError);
      return out;
    }
    if (cmd == "OFFLINE" || cmd == "ONLINE") {
      return impl_->handle_availability(tokens, cmd == "OFFLINE") + "\n";
    }
    if (cmd == "REMAP") {
      obs::TraceScope trace_scope(&impl_->service.stage_stats(),
                                 impl_->service.tracer());
      obs::Outcome outcome = obs::Outcome::kError;
      const std::string out = impl_->handle_remap(tokens, served_, outcome);
      trace_scope.set_outcome(outcome);
      return out + "\n";
    }
    if (cmd == "OPTIMIZE") {
      obs::TraceScope trace_scope(&impl_->service.stage_stats(),
                                 impl_->service.tracer());
      obs::Outcome outcome = obs::Outcome::kError;
      const std::string out =
          impl_->handle_optimize(tokens, more, served_, outcome);
      trace_scope.set_outcome(outcome);
      return out + "\n";
    }
    if (cmd == "STATS") {
      if (tokens.size() >= 2 && tokens[1] == "json") {
        return "STATS " + impl_->service.metrics_snapshot().to_json() + "\n";
      }
      return "STATS " + impl_->service.stats_line() + "\n";
    }
    if (cmd == "METRICS") {
      if (tokens.size() >= 2 && tokens[1] == "json") {
        return "METRICS " + impl_->service.metrics_snapshot().to_json() + "\n";
      }
      // Multi-line Prometheus text; the trailing "# EOF" line frames it for
      // line-oriented clients.
      return impl_->service.metrics_snapshot().to_prometheus();
    }
    if (cmd == "TRACE") {
      return impl_->handle_trace(tokens) + "\n";
    }
    if (cmd == "HEALTH") {
      return impl_->handle_health() + "\n";
    }
    if (cmd == "WATCH") {
      // Streaming subscriptions live in the event-loop server, which
      // intercepts WATCH before this session sees it: a stdin session has
      // no way to push frames between reads.
      throw ParseError("WATCH requires a socket connection (serve --listen)");
    }
    if (cmd == "QUIT") {
      done_ = true;
      return "OK bye\n";
    }
    throw ParseError("unknown command '" + cmd + "'");
  } catch (const Error& e) {
    return std::string("ERR ") + e.what() + "\n";
  } catch (const std::exception& e) {
    // The session must survive anything a line of input can provoke.
    return std::string("ERR unexpected error: ") + e.what() + "\n";
  }
}

std::string format_map_response(const MapResponse& response) {
  std::string out;
  append_map_response(out, response);
  return out;
}

std::string format_query(const Allocation& alloc, const std::string& alloc_id,
                         std::size_t np, const std::string& spec,
                         const std::string& options) {
  std::string out;
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    const AllocatedNode& node = alloc.node(i);
    out += "NODE " + alloc_id + " " + std::to_string(node.slots) + " " +
           serialize_topology(node.topo) + "\n";
  }
  out += "MAP " + alloc_id + " " + std::to_string(np) + " " + spec;
  if (!options.empty()) out += " " + options;
  out += "\n";
  return out;
}

std::size_t serve(std::istream& in, std::ostream& out,
                  MappingService& service, bool stats_at_eof) {
  ProtocolSession session(service);
  return serve(in, out, session, service, stats_at_eof, nullptr);
}

std::size_t serve(std::istream& in, std::ostream& out,
                  ProtocolSession& session, MappingService& service,
                  bool stats_at_eof, const std::function<bool()>& stop) {
  std::string line;
  while (!(stop && stop()) && std::getline(in, line)) {
    const std::string response = session.execute(line, in);
    if (!response.empty()) {
      out << response;
      out.flush();
    }
    if (session.done()) break;
  }
  if (stats_at_eof) {
    out << "STATS " << service.stats_line() << "\n";
    out.flush();
  }
  return session.served();
}

}  // namespace lama::svc
