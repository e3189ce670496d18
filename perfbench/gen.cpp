#include "gen.hpp"

#include <set>
#include <stdexcept>

#include "support/rng.hpp"
#include "svc/client.hpp"
#include "topo/node_topology.hpp"
#include "topo/serialize.hpp"

namespace perfbench {

namespace {

// Fig. 2's node first; the rest vary depth (NUMA level, no SMT) and width.
const std::vector<std::string> kSmallShapes = {
    "socket:2 core:4 pu:2",  "socket:2 core:2 pu:2",
    "socket:1 core:8 pu:2",  "socket:2 numa:2 core:2 pu:2",
    "socket:2 core:6 pu:1",  "socket:4 core:2 pu:2",
};

// Layouts valid on every shape above (absent levels pin to width 1).
const std::vector<std::string> kLayouts = {
    "scbnh", "hcsbn", "nsch",  "csnh", "hsnc",  "cnsh",
    "nhcs",  "shcn",  "sNcnh", "Nchsn", "cshn", "hcL1L2L3Nsbn",
};

// The 8 layouts of large_np and churn. A layout's length sets the per-rank
// cost (one coordinate per letter), so these workloads use one fixed set
// and the seed only permutes it.
const std::vector<std::string> kEightLayouts = {
    "scbnh", "hcsbn", "nsch", "csnh", "sNcnh", "Nchsn", "cshn", "hcL1L2L3Nsbn",
};

struct NodeSpec {
  std::string shape;
  std::size_t slots = 0;  // 0 = one per PU
};

// Indices 0..size-1 dealt in a seeded order, reshuffled whenever the deck
// runs out: over any run of deals every index comes up equally often, give
// or take one.
struct Deck {
  std::size_t size = 0;
  std::vector<std::size_t> left;
};

class Builder {
 public:
  Builder(Workload& w, std::uint64_t seed) : w_(w), rng_(seed) {}

  std::uint64_t below(std::uint64_t bound) { return rng_.next_below(bound); }
  std::size_t in(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(below(hi - lo + 1));
  }

  std::size_t deal(Deck& d) {
    if (d.left.empty()) {
      for (std::size_t i = 0; i < d.size; ++i) d.left.push_back(i);
      for (std::size_t i = d.size - 1; i > 0; --i) {
        std::swap(d.left[i], d.left[static_cast<std::size_t>(below(i + 1))]);
      }
    }
    const std::size_t v = d.left.back();
    d.left.pop_back();
    return v;
  }

  // `count` distinct entries of `pool`, in draw order.
  std::vector<std::string> pick(const std::vector<std::string>& pool,
                                std::size_t count) {
    std::vector<std::string> left = pool;
    std::vector<std::string> out;
    for (std::size_t i = 0; i < count && !left.empty(); ++i) {
      const std::size_t at = static_cast<std::size_t>(below(left.size()));
      out.push_back(left[at]);
      left.erase(left.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return out;
  }

  // Defines an allocation; returns false (and defines nothing) when its
  // content equals an earlier one, since equal content shares cache entries.
  bool add_alloc(const std::string& id, const std::vector<NodeSpec>& nodes) {
    AllocSpec spec;
    spec.id = id;
    std::vector<Op> lines;
    for (const NodeSpec& n : nodes) {
      const lama::NodeTopology topo = lama::NodeTopology::synthetic(n.shape);
      const std::size_t slots = n.slots == 0 ? topo.pu_count() : n.slots;
      const std::string sexpr = lama::serialize_topology(topo);
      spec.serialized += std::to_string(slots) + " " + sexpr + "\n";
      spec.node_pus.push_back(topo.pu_count());
      lines.push_back(Op{.verb = WireVerb::kNode,
                         .payload = "NODE " + id + " " +
                                    std::to_string(slots) + " " + sexpr,
                         .alloc = id});
    }
    if (!contents_.insert(spec.serialized).second) return false;
    w_.allocs.push_back(std::move(spec));
    w_.define.insert(w_.define.end(), lines.begin(), lines.end());
    return true;
  }

  Op map(const std::string& id, std::size_t np, const std::string& layout,
         bool bind) {
    return Op{.verb = WireVerb::kMap,
              .payload = "MAP " + id + " " + std::to_string(np) + " lama:" +
                         layout + (bind ? " bind=core" : ""),
              .alloc = id,
              .expect = next_expect()};
  }

  struct Job {
    std::string alloc;
    std::size_t np;
    std::string layout;
    bool bind;
  };
  Op mapbatch(const std::vector<Job>& jobs) {
    std::vector<lama::svc::BatchJob> batch;
    for (const Job& j : jobs) {
      batch.push_back({j.alloc, j.np, "lama:" + j.layout,
                       j.bind ? std::vector<std::string>{"bind=core"}
                              : std::vector<std::string>{}});
    }
    return Op{.verb = WireVerb::kMapBatch,
              .payload = lama::svc::format_mapbatch(batch),
              .alloc = jobs.front().alloc,
              .expect = next_expect(),
              .jobs = jobs.size()};
  }

  // A failure of `alloc`'s node `node`: the whole node when `pus` is 0,
  // else that many of its PUs, chosen by the seed.
  std::size_t add_failure(const AllocSpec& alloc, std::size_t node, std::size_t pus) {
    Failure f{.alloc = alloc.id, .node = node};
    std::set<std::size_t> chosen;
    while (chosen.size() < pus) chosen.insert(below(alloc.node_pus[node]));
    f.pus.assign(chosen.begin(), chosen.end());
    w_.failures.push_back(std::move(f));
    return w_.failures.size() - 1;
  }

  // `count` failures of `alloc`: a whole node, then three PU sets, in turn
  // (an even mix would put the failover p50 on the boundary between the two
  // kinds). Nodes are dealt from one deck per kind, so every node fails
  // equally often of each kind; the k-th PU failure takes
  // pu_counts[k % size] PUs.
  std::vector<std::size_t> add_failures(const AllocSpec& alloc, std::size_t count,
                                        const std::vector<std::size_t>& pu_counts) {
    Deck whole{alloc.node_pus.size()}, partial{alloc.node_pus.size()};
    std::vector<std::size_t> out;
    std::size_t sets = 0;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(i % 4 == 0 ? add_failure(alloc, deal(whole), 0)
                               : add_failure(alloc, deal(partial),
                                             pu_counts[sets++ % pu_counts.size()]));
    }
    return out;
  }

  // OFFLINE, REMAP, ONLINE of one failure. The REMAP re-places the
  // allocation's last MAP (or REMAP) onto the reduced allocation.
  std::vector<Op> drill(std::size_t failure) {
    const Failure& f = w_.failures[failure];
    std::string where = f.alloc + " " + std::to_string(f.node);
    for (const std::size_t pu : f.pus) where += " " + std::to_string(pu);
    return {Op{.verb = WireVerb::kOffline,
               .payload = "OFFLINE " + where,
               .alloc = f.alloc,
               .failure = failure},
            Op{.verb = WireVerb::kRemap,
               .payload = "REMAP " + f.alloc,
               .alloc = f.alloc,
               .failure = failure},
            Op{.verb = WireVerb::kOnline,
               .payload = "ONLINE " + where,
               .alloc = f.alloc,
               .failure = failure}};
  }

  // A sparse communication graph: every process talks to `degree` seeded
  // partners with seeded volumes.
  std::vector<std::string> sparse_edges(std::size_t np, std::size_t degree) {
    std::vector<std::string> edges;
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t d = 0; d < degree; ++d) {
        std::size_t q = static_cast<std::size_t>(below(np - 1));
        if (q >= p) ++q;
        edges.push_back(std::to_string(p) + " " + std::to_string(q) + " " +
                        std::to_string(1024 * in(1, 64)));
      }
    }
    return edges;
  }

  std::size_t add_opt(const std::string& alloc, std::size_t np,
                      const std::string& pattern, std::size_t degree) {
    OptCase c{.alloc = alloc, .np = np};
    if (pattern.empty()) {
      c.edges = sparse_edges(np, degree);
    } else {
      c.pattern = pattern + ":" + std::to_string(1024 * in(1, 64));
    }
    w_.opt_cases.push_back(std::move(c));
    return w_.opt_cases.size() - 1;
  }

  Op optimize(std::size_t index, bool hit) {
    const OptCase& c = w_.opt_cases[index];
    std::string payload =
        "OPTIMIZE " + c.alloc + " " + std::to_string(c.np) + " ";
    if (c.pattern.empty()) {
      payload += "matrix=" + std::to_string(c.edges.size());
      for (const std::string& e : c.edges) payload += "\n" + e;
    } else {
      payload += "pattern=" + c.pattern;
    }
    return Op{.verb = WireVerb::kOptimize,
              .payload = std::move(payload),
              .alloc = c.alloc,
              .opt = index,
              .hit = hit};
  }

 private:
  std::size_t next_expect() {
    w_.expected.emplace_back();
    return w_.expected.size() - 1;
  }

  Workload& w_;
  lama::SplitMix64 rng_;
  std::set<std::string> contents_;
};

struct Pair {
  std::string alloc;
  std::string layout;
};

// Every workload's failures come from this fixed seed rather than the run's.
// A REMAP's cost depends on how many ranks the failed PUs held, and on the
// warm workloads' drills, whose REMAP baseline carries over from drill to
// drill, on every failure before it: which PUs a seed failed moved
// warm_small's failover p50 by up to a quarter and churn's by a tenth.
constexpr std::uint64_t kFailureSeed = 1;

void append(std::vector<Op>& to, const std::vector<Op>& ops) {
  to.insert(to.end(), ops.begin(), ops.end());
}

// 64 small allocations x 4 layouts = 256 warm pairs, inside the default
// 8 x 64 cache. Rounds: 32 MAPs, one 32-job MAPBATCH, a failure drill on a
// spare allocation no MAP touches, and 2 OPTIMIZEs served from the cache.
// Node counts are fixed (one one-node allocation per shape, then 2, 3 and 4
// nodes in turn), and shapes, layouts, np values and the pairs the rounds
// address are dealt from decks, so the seed changes which allocation gets
// what, not how much work the warm set or a cycle of rounds holds.
void make_warm_small(Workload& w, Builder& b) {
  Deck shapes{kSmallShapes.size()}, layouts{kLayouts.size()}, nps{31};
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::string id = "w" + std::to_string(i);
    const bool single = i < kSmallShapes.size();
    std::vector<NodeSpec> nodes(single ? 1 : 2 + (i - kSmallShapes.size()) % 3);
    do {
      for (NodeSpec& n : nodes) n.shape = kSmallShapes[single ? i : b.deal(shapes)];
    } while (!b.add_alloc(id, nodes));
    // 12 layouts deal 4 per allocation: the four are always distinct.
    for (std::size_t k = 0; k < 4; ++k) {
      const std::string& layout = kLayouts[b.deal(layouts)];
      pairs.push_back({id, layout});
      w.warm.push_back(b.map(id, 2 + b.deal(nps), layout, false));
    }
  }
  // The drill allocation: Fig. 2 nodes with fewer slots than PUs, so its
  // content differs from every warm allocation.
  b.add_alloc("d", std::vector<NodeSpec>(4, {kSmallShapes[0], 12}));
  Builder fixed(w, kFailureSeed);
  const std::vector<std::size_t> drills = fixed.add_failures(w.alloc("d"), 16, {1, 2, 3, 4});
  // 64 OPTIMIZE cases at np <= 24, one per multi-node warm allocation and
  // then round again; warmed in preparation.
  const std::size_t multi = 64 - kSmallShapes.size();
  std::vector<std::size_t> opts;
  for (std::size_t i = 0; i < 64; ++i) {
    const AllocSpec& a = w.allocs[kSmallShapes.size() + i % multi];
    std::size_t pus = 0;
    for (const std::size_t p : a.node_pus) pus += p;
    opts.push_back(b.add_opt(a.id, std::min<std::size_t>(pus, 24), "", 3));
  }

  w.prep.push_back(b.map("d", 32, "scbnh", false));
  append(w.prep, b.drill(drills[0]));
  for (const std::size_t o : opts) w.prep.push_back(b.optimize(o, false));

  // Over the 16 rounds every pair comes up four times. Exactly 1 in 8
  // binds, rotating through the round's positions.
  Deck deal_pairs{pairs.size()};
  for (std::size_t r = 0; r < 16; ++r) {
    std::vector<Op> round;
    auto draw = [&](std::size_t i) {
      const Pair& p = pairs[b.deal(deal_pairs)];
      return Builder::Job{p.alloc, 2 + b.deal(nps), p.layout, (i + r) % 8 == 0};
    };
    for (std::size_t i = 0; i < 32; ++i) {
      const Builder::Job j = draw(i);
      round.push_back(b.map(j.alloc, j.np, j.layout, j.bind));
    }
    std::vector<Builder::Job> jobs;
    for (std::size_t i = 0; i < 32; ++i) jobs.push_back(draw(i + 1));
    round.push_back(b.mapbatch(jobs));
    append(round, b.drill(drills[r % drills.size()]));
    round.push_back(b.optimize(opts[(2 * r) % opts.size()], true));
    round.push_back(b.optimize(opts[(2 * r + 1) % opts.size()], true));
    w.rounds.push_back(std::move(round));
  }
}

// Two large allocations x 8 layouts at np 512..4096. Rounds: 12 MAPs, one
// 8-job MAPBATCH, a drill on a spare 64-node allocation holding a 1024-rank
// job, and one OPTIMIZE served from the cache.
void make_large_np(Workload& w, Builder& b) {
  b.add_alloc("L0", std::vector<NodeSpec>(64, {"socket:2 core:4 pu:2", 0}));
  b.add_alloc("L1",
              std::vector<NodeSpec>(32, {"socket:2 numa:2 core:6 pu:2", 0}));
  b.add_alloc("D", std::vector<NodeSpec>(64, {"socket:2 core:4 pu:2", 12}));
  std::vector<Pair> pairs;  // L0's 8 pairs, then L1's
  for (const std::string id : {"L0", "L1"}) {
    for (const std::string& layout : b.pick(kEightLayouts, 8)) {
      pairs.push_back({id, layout});
      w.warm.push_back(b.map(id, 1024, layout, false));
    }
  }
  Builder fixed(w, kFailureSeed);
  const std::vector<std::size_t> drills = fixed.add_failures(w.alloc("D"), 8, {2, 4, 6, 8});
  // OPTIMIZE cases on the NUMA allocation, where sparse searches beat the
  // static layout (on L0's uniform nodes they mostly tie it).
  std::vector<std::size_t> opts;
  for (int i = 0; i < 24; ++i) opts.push_back(b.add_opt("L1", 32, "", 3));

  w.prep.push_back(b.map("D", 1024, "scbnh", false));
  append(w.prep, b.drill(drills[0]));
  for (const std::size_t o : opts) w.prep.push_back(b.optimize(o, false));

  // Per allocation and round: np 512, 1024 three times, 2048, 4096. The
  // p50 then falls inside the 1024 class and the p90 inside the 4096 class
  // rather than on a boundary between two classes.
  const std::size_t nps[] = {512, 1024, 1024, 1024, 2048, 4096};
  for (std::size_t r = 0; r < 8; ++r) {
    std::vector<Op> round;
    // Over the 8 rounds every (allocation, np slot, layout) triple comes up
    // exactly once, so the latency mix does not depend on the seed. 1 in 4
    // binds.
    for (std::size_t i = 0; i < 12; ++i) {
      const Pair& p = pairs[8 * (i / 6) + (i % 6 + r) % 8];
      round.push_back(b.map(p.alloc, nps[i % 6], p.layout, (i + r) % 4 == 0));
    }
    std::vector<Builder::Job> jobs;
    for (std::size_t k = 0; k < 8; ++k) {
      const Pair& p = pairs[8 * (k % 2) + (k + r + 4) % 8];
      jobs.push_back({p.alloc, nps[(k + r) % 6], p.layout, (k + r + 1) % 4 == 0});
    }
    round.push_back(b.mapbatch(jobs));
    append(round, b.drill(drills[r % drills.size()]));
    round.push_back(b.optimize(opts[r % opts.size()], true));
    w.rounds.push_back(std::move(round));
  }
}

// One 16-node allocation under repeated failure cycles. A cycle: OFFLINE,
// REMAP, a MAPBATCH of queued jobs on the reduced allocation, ONLINE, and
// the cold MAP that is the next cycle's REMAP baseline. Every availability
// change bumps the epoch, so every MAP and MAPBATCH job builds a tree and
// compiles a plan. Rounds: 8 cycles, then one OPTIMIZE that misses the cache
// (the cycles' epoch bumps dropped it).
void make_churn(Workload& w, Builder& b) {
  b.add_alloc("c", std::vector<NodeSpec>(16, {"socket:2 core:4 pu:2", 0}));
  // One fixed layout order: which layout meets which np and failure kind
  // then never depends on the seed.
  const std::vector<std::string>& layouts = kEightLayouts;
  for (const std::string& layout : layouts) {
    w.warm.push_back(b.map("c", 256, layout, false));
  }
  const std::size_t map_nps[] = {64, 128, 256};
  struct Cycle {
    std::size_t failure;
    std::vector<Builder::Job> jobs;
    std::size_t np;
    std::string layout;
    bool bind;
  };
  std::vector<Cycle> cycles;
  // 96 cycles. Cycle i fails a whole node when i % 4 == 0, else 1-8 PUs in
  // turn, and ends with a MAP at np map_nps[i % 3] and layout
  // (i + i / 12) % 8, the baseline of cycle i + 1's REMAP: over the 96
  // cycles every (np, layout) pair is the baseline of one failure in each of
  // the four positions, so every layout meets every np and failure kind
  // equally often. The seed picks the job np order (dealt from 16, 32, ...,
  // 128), not the mix.
  Builder fixed(w, kFailureSeed);
  const std::vector<std::size_t> failures =
      fixed.add_failures(w.alloc("c"), 96, {1, 2, 3, 4, 5, 6, 7, 8});
  Deck job_nps{8};
  for (std::size_t i = 0; i < 96; ++i) {
    Cycle c{.failure = failures[i]};
    // Distinct layouts within a batch: no two jobs race for one tree.
    for (std::size_t k = 1; k <= 4; ++k) {
      c.jobs.push_back(
          {"c", 16 * (1 + b.deal(job_nps)), layouts[(i + 2 * k) % 8], (i + k) % 8 == 0});
    }
    c.np = map_nps[i % 3];
    c.layout = layouts[(i + i / 12) % 8];
    c.bind = i % 12 == 5;  // once per layout
    cycles.push_back(std::move(c));
  }
  // OPTIMIZE pool: 72 sparse seeded payloads at np 64 and, every fourth, a
  // named pattern with a seeded size at np 128 or 256 (each of the eight
  // pattern and np pairs three times). A sparse search's time and gain vary
  // with its matrix, so many of them keep the median and the mean gain
  // (opt_gain) steady across seeds.
  const char* patterns[2][4] = {{"halo", "ring", "halo3d", "stride"},
                                {"halo", "ring", "pairs", "stride"}};
  std::vector<std::size_t> opts;
  for (std::size_t i = 0; i < 96; ++i) {
    const std::size_t k = (i / 4) % 8;
    opts.push_back(i % 4 == 3 ? b.add_opt("c", map_nps[1 + k % 2], patterns[k % 2][k / 2], 0)
                              : b.add_opt("c", 64, "", 4));
  }

  w.prep.push_back(b.map("c", 128, layouts[0], false));
  for (std::size_t r = 0; r < opts.size(); ++r) {
    std::vector<Op> round;
    for (std::size_t k = 0; k < 8; ++k) {
      const Cycle& c = cycles[(8 * r + k) % cycles.size()];
      std::vector<Op> drill = b.drill(c.failure);
      round.push_back(drill[0]);
      round.push_back(drill[1]);
      round.push_back(b.mapbatch(c.jobs));
      round.push_back(drill[2]);
      round.push_back(b.map("c", c.np, c.layout, c.bind));
    }
    round.push_back(b.optimize(opts[r % opts.size()], false));
    w.rounds.push_back(std::move(round));
  }
}

}  // namespace

const AllocSpec& Workload::alloc(const std::string& id) const {
  for (const AllocSpec& a : allocs) {
    if (a.id == id) return a;
  }
  throw std::invalid_argument("no allocation '" + id + "'");
}

std::string Workload::stream_text() const {
  std::string out = name + " seed=" + std::to_string(seed) + "\n";
  auto add = [&out](const std::vector<Op>& ops) {
    for (const Op& op : ops) out += op.payload + "\n";
  };
  add(define);
  add(warm);
  add(prep);
  for (const std::vector<Op>& round : rounds) add(round);
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm_small", "large_np",
                                                 "churn"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // The name is folded into the stream seed so two workloads never share a
  // draw sequence.
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  Builder b(w, h);
  if (name == "warm_small") {
    make_warm_small(w, b);
  } else if (name == "large_np") {
    make_large_np(w, b);
  } else if (name == "churn") {
    make_churn(w, b);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
