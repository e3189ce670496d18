#include "sim/event_sim.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "support/error.hpp"

namespace lama {

namespace {

struct RankState {
  std::size_t node = 0;
  std::size_t pu = 0;
  double clock = 0.0;
  double wait = 0.0;
  std::size_t next_op = 0;
  bool parked = false;  // blocked on a recv whose message has not been sent
};

}  // namespace

SimReport simulate(const Allocation& alloc, const MappingResult& mapping,
                   const std::vector<RankScript>& scripts,
                   const DistanceModel& model, const NicModel& nic) {
  const std::size_t np = mapping.num_procs();
  if (scripts.size() != np) {
    throw MappingError("simulate: " + std::to_string(scripts.size()) +
                       " scripts for " + std::to_string(np) + " ranks");
  }

  std::vector<RankState> ranks(np);
  for (std::size_t rank = 0; rank < np; ++rank) {
    ranks[rank].node = mapping.node(rank);
    ranks[rank].pu = mapping.representative_pu(rank);
  }

  // In-flight/delivered messages: FIFO arrival times per (src, dst).
  std::map<std::pair<int, int>, std::queue<double>> mailbox;
  // Ranks parked on (src, dst) recvs, woken by the matching send.
  std::map<std::pair<int, int>, std::queue<int>> waiters;

  std::vector<double> nic_free(alloc.num_nodes(), 0.0);
  std::vector<double> nic_busy(alloc.num_nodes(), 0.0);

  // Min-heap of (ready time, rank) for runnable ranks.
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  std::size_t done = 0;
  for (std::size_t r = 0; r < np; ++r) {
    if (scripts[r].empty()) {
      ++done;
    } else {
      ready.push({0.0, static_cast<int>(r)});
    }
  }

  SimReport report;

  auto validate_peer = [&](int peer) {
    if (peer < 0 || static_cast<std::size_t>(peer) >= np) {
      throw MappingError("script references rank " + std::to_string(peer) +
                         " outside the job");
    }
  };

  while (!ready.empty()) {
    const auto [when, rank_id] = ready.top();
    ready.pop();
    RankState& r = ranks[static_cast<std::size_t>(rank_id)];
    r.clock = std::max(r.clock, when);
    const RankScript& script = scripts[static_cast<std::size_t>(rank_id)];
    const RankOp& op = script[r.next_op];

    switch (op.kind) {
      case OpKind::kCompute: {
        r.clock += op.compute_ns;
        break;
      }
      case OpKind::kSend: {
        validate_peer(op.peer);
        const RankState& dst = ranks[static_cast<std::size_t>(op.peer)];
        double arrival = 0.0;
        if (r.node == dst.node) {
          const ResourceType level = DistanceModel::sharing_level(
              alloc.node(r.node).topo, r.pu, dst.pu);
          const LinkCost& cost = model.level_cost(level);
          r.clock += nic.send_overhead_ns;
          arrival = r.clock + cost.message_ns(op.bytes);
        } else {
          r.clock += nic.send_overhead_ns;
          const double start = std::max(nic_free[r.node], r.clock);
          const double inject =
              static_cast<double>(op.bytes) / nic.bandwidth_gb_s;
          nic_free[r.node] = start + inject;
          nic_busy[r.node] += inject;
          r.clock = start + inject;
          arrival = r.clock + nic.network_latency_ns;
        }
        const auto key = std::make_pair(rank_id, op.peer);
        mailbox[key].push(arrival);
        ++report.messages_delivered;
        // Wake one parked receiver, if any.
        auto it = waiters.find(key);
        if (it != waiters.end() && !it->second.empty()) {
          const int sleeper = it->second.front();
          it->second.pop();
          ranks[static_cast<std::size_t>(sleeper)].parked = false;
          ready.push({ranks[static_cast<std::size_t>(sleeper)].clock,
                      sleeper});
        }
        break;
      }
      case OpKind::kRecv: {
        validate_peer(op.peer);
        const auto key = std::make_pair(op.peer, rank_id);
        auto it = mailbox.find(key);
        if (it == mailbox.end() || it->second.empty()) {
          // Not sent yet: park until the sender posts it.
          r.parked = true;
          waiters[key].push(rank_id);
          continue;  // do NOT advance next_op or re-queue
        }
        const double arrival = it->second.front();
        it->second.pop();
        if (arrival > r.clock) {
          r.wait += arrival - r.clock;
          r.clock = arrival;
        }
        break;
      }
    }

    ++r.next_op;
    if (r.next_op == script.size()) {
      ++done;
    } else {
      ready.push({r.clock, rank_id});
    }
  }

  if (done != np) {
    std::string stuck;
    for (std::size_t i = 0; i < np; ++i) {
      if (ranks[i].parked) {
        const RankOp& op = scripts[i][ranks[i].next_op];
        stuck += " rank" + std::to_string(i) + "<-rank" +
                 std::to_string(op.peer);
      }
    }
    throw MappingError("communication deadlock; blocked receives:" + stuck);
  }

  report.finish_ns.resize(np);
  report.wait_ns.resize(np);
  for (std::size_t i = 0; i < np; ++i) {
    report.finish_ns[i] = ranks[i].clock;
    report.wait_ns[i] = ranks[i].wait;
    report.makespan_ns = std::max(report.makespan_ns, ranks[i].clock);
  }
  for (double busy : nic_busy) {
    report.max_nic_busy_ns = std::max(report.max_nic_busy_ns, busy);
  }
  return report;
}

std::vector<RankScript> scripts_from_pattern(const TrafficPattern& pattern,
                                             std::size_t rounds,
                                             double compute_ns_per_round) {
  std::vector<RankScript> scripts(static_cast<std::size_t>(pattern.np));

  // Outgoing messages in pattern order; incoming sorted by source.
  std::vector<std::vector<std::pair<int, std::size_t>>> out(
      static_cast<std::size_t>(pattern.np));
  std::vector<std::vector<int>> in(static_cast<std::size_t>(pattern.np));
  for (const Message& m : pattern.messages) {
    out[static_cast<std::size_t>(m.src)].emplace_back(m.dst, m.bytes);
    in[static_cast<std::size_t>(m.dst)].push_back(m.src);
  }
  for (auto& sources : in) std::sort(sources.begin(), sources.end());

  for (std::size_t round = 0; round < rounds; ++round) {
    for (int r = 0; r < pattern.np; ++r) {
      RankScript& script = scripts[static_cast<std::size_t>(r)];
      if (compute_ns_per_round > 0.0) {
        script.push_back(
            {OpKind::kCompute, compute_ns_per_round, -1, 0});
      }
      for (const auto& [dst, bytes] : out[static_cast<std::size_t>(r)]) {
        script.push_back({OpKind::kSend, 0.0, dst, bytes});
      }
      for (int src : in[static_cast<std::size_t>(r)]) {
        script.push_back({OpKind::kRecv, 0.0, src, 0});
      }
    }
  }
  return scripts;
}

}  // namespace lama
