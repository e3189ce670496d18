// The socket server (ROADMAP item 3): N event loops (svc/event_loop.hpp),
// each with its own epoll instance, listener and NetCounters, bound to the
// same TCP port via SO_REUSEPORT so the kernel hash-partitions incoming
// connections. A connection lands on one shard at accept time and stays
// there for life — its read and write buffers and its counters never cross
// a thread boundary. One shard is the plain single-loop server; `lamactl
// serve --listen`, the tests and the benches all build this class.
//
// What the shards share: one ProtocolSession (the control plane —
// allocations, epochs, REMAP baselines and the journal writer, behind the
// session's own mutex), so a NODE defined on one connection is visible to
// an OFFLINE on any other, whichever shard either landed on; one
// ConnectionLimiter (the global --max-connections); and the MappingService
// underneath, whose tree/plan/opt caches are sharded and thread-safe.
//
// Self-mapping: the server is itself a parallel process, so it places its
// own shard threads with LAMA. compute_shard_affinity() wraps the
// discovered machine in a one-node Cluster, runs lama_map over it with a
// locality-preserving layout, and hands each shard the OS cpus of its
// rank's target PUs — discovery keeps platform os indices exactly so this
// works (topo/sysfs_topology.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "svc/event_loop.hpp"
#include "topo/node_topology.hpp"

namespace lama::svc {

class MappingService;
class ProtocolSession;

struct ShardServerConfig {
  // Event-loop shards (>= 1). One shard is the plain single-loop server.
  std::size_t shards = 1;
  // Per-shard loop configuration. `max_connections` is the GLOBAL cap
  // across every shard (enforced through one shared ConnectionLimiter, 0 =
  // unlimited).
  NetConfig net;
  // OS cpus to pin each shard's loop thread to; entry i applies to shard i,
  // missing/empty entries leave that shard unpinned. Produced by
  // compute_shard_affinity() — or left empty (--no-affinity).
  std::vector<std::vector<int>> affinity;
};

// LAMA maps its own server: places `shards` ranks onto `machine` (a
// one-node cluster of it) with the given rmaps layout and returns, per
// shard, the OS indices of its target PUs — ready for
// pthread_setaffinity_np via ShardServerConfig::affinity. Returns an empty
// vector when the machine cannot host the mapping (no online PU).
std::vector<std::vector<int>> compute_shard_affinity(
    const NodeTopology& machine, std::size_t shards,
    const std::string& layout = "scbnh");

class ShardedServer {
 public:
  // `service` is caller-owned and must outlive the server. The one
  // ProtocolSession every shard dispatches into is constructed here over
  // it; restore durable state into session() before serving traffic.
  ShardedServer(MappingService& service, ShardServerConfig config);
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  // Binds every shard. TCP only for shards > 1 (SO_REUSEPORT has no unix
  // equivalent worth the pretence) — throws MappingError otherwise. Pass
  // port 0 and shard 0 resolves it; siblings bind the resolved port.
  void listen(const std::string& address);

  [[nodiscard]] const ListenAddress& bound_address() const;

  // The control-plane session all shards share: restore_from() before
  // run(), snapshot_lines()/state_digest() after it for the shutdown
  // snapshot.
  [[nodiscard]] ProtocolSession& session() { return *session_; }

  // Serves until `stop` returns true or stop() is called. Shard 0 runs on
  // the calling thread (it evaluates `stop`, preserving the single-shard
  // contract that the predicate is polled from the serving thread); shards
  // 1..N-1 run on internal threads and stop when shard 0 does. Returns the
  // total number of requests dispatched across every shard.
  std::size_t run(const std::function<bool()>& stop = nullptr);

  // Background-thread convenience: start() runs run() on an internal
  // thread, stop() signals every shard and joins.
  void start();
  void stop();

  [[nodiscard]] std::size_t shards() const { return servers_.size(); }
  [[nodiscard]] const NetCounters& shard_counters(std::size_t i) const {
    return servers_[i]->net_counters();
  }
  [[nodiscard]] std::size_t dispatched() const;
  [[nodiscard]] const ConnectionLimiter& limiter() const { return limiter_; }

 private:
  ConnectionLimiter limiter_;
  std::unique_ptr<ProtocolSession> session_;
  std::vector<std::unique_ptr<EventLoopServer>> servers_;
  std::vector<std::thread> threads_;  // shards 1..N-1 during run()
  std::thread controller_;  // start()/stop() wrapper around run()
};

}  // namespace lama::svc
