#include "svc/shard_server.hpp"

#include "cluster/cluster.hpp"
#include "lama/mapper.hpp"
#include "support/error.hpp"
#include "svc/protocol.hpp"

namespace lama::svc {

std::vector<std::vector<int>> compute_shard_affinity(
    const NodeTopology& machine, std::size_t shards,
    const std::string& layout) {
  if (shards == 0) return {};
  if (machine.online_pus().empty()) return {};
  Cluster cluster;
  cluster.add_node(machine, /*slots=*/shards);
  const Allocation alloc = allocate_all(cluster);
  MapOptions opts;
  opts.np = shards;
  // More shards than PUs is legitimate (the kernel still spreads
  // connections); the wrap-around just stacks shards on the same cpus.
  opts.allow_oversubscribe = true;
  const MappingResult result = lama_map(alloc, layout, opts);
  std::vector<std::vector<int>> cpus(shards);
  for (std::size_t rank = 0; rank < result.num_procs() && rank < shards;
       ++rank) {
    const BitmapView pus = result.pus(rank);
    for (std::size_t pu = pus.first(); pu != Bitmap::npos; pu = pus.next(pu)) {
      cpus[rank].push_back(machine.pu(pu).os_index());
    }
  }
  return cpus;
}

ShardedServer::ShardedServer(MappingService& service, ShardServerConfig config)
    : service_(service),
      config_(config),
      limiter_(config.net.max_connections) {
  if (config_.shards == 0) config_.shards = 1;
  sessions_.reserve(config_.shards);
  servers_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    NetConfig net = config_.net;
    net.limiter = &limiter_;
    net.reuse_port = config_.shards > 1;
    if (i < config_.affinity.size()) net.affinity_cpus = config_.affinity[i];
    sessions_.push_back(std::make_unique<ProtocolSession>(service_));
    servers_.push_back(
        std::make_unique<EventLoopServer>(service_, *sessions_.back(), net));
  }
}

ShardedServer::~ShardedServer() {
  if (controller_.joinable()) stop();
  // A run() interrupted by an exception could leave sibling threads live;
  // make sure they are signalled and joined before the servers die.
  stop_all_.store(true, std::memory_order_release);
  for (std::size_t i = 1; i < servers_.size(); ++i) servers_[i]->stop();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ShardedServer::listen(const std::string& address) {
  listen(parse_listen_address(address));
}

void ShardedServer::listen(const ListenAddress& address) {
  if (address.is_unix && servers_.size() > 1) {
    throw MappingError(
        "sharded serving requires a TCP listen address (SO_REUSEPORT); "
        "unix sockets support --shards 1 only");
  }
  servers_[0]->listen(address);
  // Shard 0 resolved the port (possibly from 0); siblings bind the same
  // concrete endpoint so the kernel partitions the accept stream.
  const ListenAddress& resolved = servers_[0]->bound_address();
  for (std::size_t i = 1; i < servers_.size(); ++i) {
    servers_[i]->listen(resolved);
  }
}

const ListenAddress& ShardedServer::bound_address() const {
  return servers_[0]->bound_address();
}

std::size_t ShardedServer::run(const std::function<bool()>& stop) {
  stop_all_.store(false, std::memory_order_release);
  threads_.clear();
  threads_.reserve(servers_.size() - 1);
  for (std::size_t i = 1; i < servers_.size(); ++i) {
    threads_.emplace_back([this, i] { servers_[i]->run(nullptr); });
  }
  // Shard 0 owns the stop predicate; when it decides to exit, every sibling
  // is told to drain too, so the whole fleet quiesces together.
  servers_[0]->run(stop);
  stop_all_.store(true, std::memory_order_release);
  for (std::size_t i = 1; i < servers_.size(); ++i) servers_[i]->stop();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  return dispatched();
}

void ShardedServer::start() {
  controller_ = std::thread([this] { run(nullptr); });
}

void ShardedServer::stop() {
  stop_all_.store(true, std::memory_order_release);
  servers_[0]->stop();  // wakes shard 0; run() then stops the siblings
  if (controller_.joinable()) controller_.join();
}

std::size_t ShardedServer::dispatched() const {
  std::size_t total = 0;
  for (const auto& server : servers_) total += server->dispatched();
  return total;
}

}  // namespace lama::svc
