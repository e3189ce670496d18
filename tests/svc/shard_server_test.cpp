// The sharded server core: N SO_REUSEPORT event loops over one
// MappingService. The suite soaks a 4-shard server with pipelined text and
// binary clients while a sampler reads the aggregated STATS/METRICS
// surface (the cross-shard counter traffic TSan must bless), and checks
// the invariants the single-loop soak pins, now summed across shards:
// exactly-once request/response pairing, accepted == closed at quiescence,
// and dispatched() agreeing with the counters. The connection cap is
// global — one ConnectionLimiter shared by every shard — and
// compute_shard_affinity() is LAMA mapping its own server.
#include "svc/shard_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "svc/net_harness.hpp"
#include "svc/wire.hpp"
#include "topo/node_topology.hpp"

namespace lama::svc {
namespace {

using testing::BlockingClient;
using testing::figure2_node_line;
using testing::frame_for;

class ShardTestServer {
 public:
  explicit ShardTestServer(std::size_t shards, NetConfig net = {},
                           ServiceConfig config = {.workers = 0})
      : service_(config),
        server_(service_, ShardServerConfig{shards, net, {}}) {
    server_.listen("tcp:127.0.0.1:0");
    server_.start();
  }
  ~ShardTestServer() { server_.stop(); }

  MappingService& service() { return service_; }
  ShardedServer& server() { return server_; }
  std::uint16_t port() const { return server_.bound_address().port; }

  // Counter `field` summed across every shard.
  std::uint64_t sum(std::atomic<std::uint64_t> NetCounters::* field) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < server_.shards(); ++i) {
      total += (server_.shard_counters(i).*field)
                   .load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  MappingService service_;
  ShardedServer server_;
};

std::size_t pump_text(std::uint16_t port, std::size_t total,
                      std::size_t depth, const std::string& id) {
  BlockingClient client(port);
  EXPECT_TRUE(client.send_all(figure2_node_line(id) + "\n"));
  std::string line;
  EXPECT_TRUE(client.read_line(line));
  EXPECT_TRUE(starts_with(line, "OK node"));

  std::size_t ok = 0;
  std::size_t sent = 0;
  while (sent < total) {
    const std::size_t window = std::min(depth, total - sent);
    std::string burst;
    for (std::size_t i = 0; i < window; ++i) {
      burst += "MAP " + id + " " + std::to_string(1 + (sent + i) % 8) +
               " lama:scbnh\n";
    }
    if (!client.send_all(burst)) break;
    for (std::size_t i = 0; i < window; ++i) {
      if (!client.read_line(line, 30000)) return ok;
      if (starts_with(line, "OK")) ++ok;
    }
    sent += window;
  }
  return ok;
}

std::size_t pump_binary(std::uint16_t port, std::size_t total,
                        std::size_t depth, const std::string& id) {
  BlockingClient client(port);
  EXPECT_TRUE(client.send_all(frame_for(figure2_node_line(id))));
  WireVerb verb = WireVerb::kErr;
  std::string payload;
  EXPECT_TRUE(client.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kOk);

  std::size_t ok = 0;
  std::size_t sent = 0;
  while (sent < total) {
    const std::size_t window = std::min(depth, total - sent);
    std::string burst;
    for (std::size_t i = 0; i < window; ++i) {
      burst += frame_for("MAP " + id + " " +
                         std::to_string(1 + (sent + i) % 8) + " lama:scbnh");
    }
    if (!client.send_all(burst)) break;
    for (std::size_t i = 0; i < window; ++i) {
      if (!client.read_frame(verb, payload, 30000)) return ok;
      if (verb == WireVerb::kOk) ++ok;
    }
    sent += window;
  }
  return ok;
}

TEST(ShardServer, FourShardSoakAccountsExactlyOnce) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 100;
  ShardTestServer server(4, {}, {.workers = 2});
  ASSERT_EQ(server.server().shards(), 4u);

  std::atomic<std::size_t> ok_total{0};
  std::atomic<bool> sampling{true};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const std::string id = "alloc" + std::to_string(t);
      const std::size_t ok =
          t % 2 == 0 ? pump_text(server.port(), kPerClient, 8, id)
                     : pump_binary(server.port(), kPerClient, 8, id);
      ok_total.fetch_add(ok, std::memory_order_relaxed);
    });
  }
  // Concurrent observer: every STATS/METRICS response folds all four
  // shards' counters while the loops are still writing them.
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      BlockingClient probe(server.port());
      if (!probe.send_all(frame_for("STATS") + frame_for("METRICS"))) break;
      WireVerb verb = WireVerb::kErr;
      std::string payload;
      if (!probe.read_frame(verb, payload)) break;
      EXPECT_TRUE(starts_with(payload, "STATS "));
      EXPECT_NE(payload.find(" net_shards=4"), std::string::npos);
      if (!probe.read_frame(verb, payload)) break;
      EXPECT_TRUE(starts_with(payload, "# HELP"));
      EXPECT_NE(payload.find("lama_net_shards 4"), std::string::npos);
      EXPECT_NE(payload.find("lama_net_shard_requests_total{shard=\"3\"}"),
                std::string::npos);
    }
  });

  for (std::thread& t : clients) t.join();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();
  server.server().stop();  // drain: every buffered command dispatched

  // Every MAP answered OK exactly once, across whatever shards the kernel
  // chose for the connections.
  EXPECT_EQ(ok_total.load(), kClients * kPerClient);
  EXPECT_EQ(server.sum(&NetCounters::text_requests) +
                server.sum(&NetCounters::binary_requests),
            server.sum(&NetCounters::responses));
  EXPECT_EQ(server.sum(&NetCounters::frame_errors), 0u);
  EXPECT_EQ(server.sum(&NetCounters::accepted),
            server.sum(&NetCounters::closed));
  EXPECT_EQ(server.server().dispatched(),
            server.sum(&NetCounters::text_requests) +
                server.sum(&NetCounters::binary_requests));
  EXPECT_EQ(server.server().limiter().active(), 0u);
  // The four loops time their dispatches into the service's one stage
  // histogram: every dispatch not shed for backpressure counts once.
  EXPECT_EQ(server.service()
                .stage_stats()
                .histogram(obs::Stage::kDispatch)
                .snapshot()
                .count,
            server.server().dispatched() -
                server.sum(&NetCounters::shed_backpressure));
}

TEST(ShardServer, ConnectionCapIsGlobalAcrossShards) {
  NetConfig net;
  net.max_connections = 2;  // global, not per shard
  ShardTestServer server(4, net);

  // Two admitted connections — confirmed by a served response — saturate
  // the cap no matter which shards they landed on.
  BlockingClient first(server.port());
  BlockingClient second(server.port());
  std::string line;
  ASSERT_TRUE(first.send_all("HEALTH\n"));
  ASSERT_TRUE(first.read_line(line));
  ASSERT_TRUE(second.send_all("HEALTH\n"));
  ASSERT_TRUE(second.read_line(line));
  EXPECT_EQ(server.server().limiter().active(), 2u);

  // The third connection is refused at accept: the kernel completes the
  // handshake, the serving shard closes it without reading.
  BlockingClient third(server.port());
  third.send_all("HEALTH\n");
  EXPECT_FALSE(third.read_line(line, 2000));
  EXPECT_GE(server.sum(&NetCounters::rejected), 1u);

  // Releasing one slot readmits; the release happens when a shard loop
  // processes the close, so poll for it.
  first.close();
  bool admitted = false;
  for (int attempt = 0; attempt < 50 && !admitted; ++attempt) {
    BlockingClient retry(server.port());
    if (retry.send_all("HEALTH\n") && retry.read_line(line, 200)) {
      admitted = starts_with(line, "OK");
    }
  }
  EXPECT_TRUE(admitted);
}

TEST(ShardServer, UnixListenRequiresSingleShard) {
  MappingService service({.workers = 0});
  ShardedServer sharded(service, ShardServerConfig{4, {}, {}});
  EXPECT_THROW(sharded.listen("unix:/tmp/lama-shard-test.sock"),
               MappingError);

  // One shard keeps the unix path available (the degenerate case is the
  // plain server).
  ShardedServer single(service, ShardServerConfig{1, {}, {}});
  const std::string path = ::testing::TempDir() + "lama-shard-single.sock";
  single.listen("unix:" + path);
  ::unlink(path.c_str());
}

TEST(ShardServer, SingleShardKeepsSingleLoopSurface) {
  // The degenerate configuration must not leak sharded-only telemetry:
  // exactly one attached counter set and no net_shards key in STATS.
  ShardTestServer server(1);
  ASSERT_EQ(server.server().shards(), 1u);
  EXPECT_EQ(server.service().net_shards(), 1u);

  const std::size_t ok = pump_text(server.port(), 16, 4, "solo");
  EXPECT_EQ(ok, 16u);

  BlockingClient probe(server.port());
  ASSERT_TRUE(probe.send_all("STATS\n"));
  std::string line;
  ASSERT_TRUE(probe.read_line(line));
  EXPECT_TRUE(starts_with(line, "STATS "));
  EXPECT_EQ(line.find("net_shards="), std::string::npos);
  EXPECT_NE(line.find("net_text_requests="), std::string::npos);
}

TEST(ShardServer, EachShardCarriesItsOwnSession) {
  // Session state (NODE interns) is shard-local by design: a client's
  // allocation lives on the shard its connection landed on, and the same
  // connection keeps seeing it — the guarantee pipelining relies on.
  ShardTestServer server(4);
  BlockingClient client(server.port());
  ASSERT_TRUE(client.send_all(figure2_node_line("pinned") + "\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(starts_with(line, "OK node"));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.send_all("MAP pinned 4 lama:scbnh\n"));
    ASSERT_TRUE(client.read_line(line));
    EXPECT_TRUE(starts_with(line, "OK")) << line;
  }
}

TEST(ShardAffinity, MapsShardsOntoDistinctPus) {
  const NodeTopology machine = NodeTopology::synthetic("socket:2 core:4");
  const auto affinity = compute_shard_affinity(machine, 4);
  ASSERT_EQ(affinity.size(), 4u);
  std::set<int> used;
  for (const std::vector<int>& cpus : affinity) {
    ASSERT_FALSE(cpus.empty());
    for (const int cpu : cpus) {
      EXPECT_GE(cpu, 0);
      EXPECT_LT(cpu, 8);
      // Under-subscribed: no two shards share a cpu.
      EXPECT_TRUE(used.insert(cpu).second) << "cpu " << cpu << " reused";
    }
  }
}

TEST(ShardAffinity, OversubscriptionWrapsInsteadOfFailing) {
  // More shards than PUs is legitimate (the kernel still spreads the
  // accept stream); the mapping wraps rather than erroring out.
  const NodeTopology machine = NodeTopology::synthetic("core:2");
  const auto affinity = compute_shard_affinity(machine, 5);
  ASSERT_EQ(affinity.size(), 5u);
  for (const std::vector<int>& cpus : affinity) {
    ASSERT_FALSE(cpus.empty());
    for (const int cpu : cpus) {
      EXPECT_GE(cpu, 0);
      EXPECT_LT(cpu, 2);
    }
  }
}

TEST(ShardAffinity, DegenerateInputsYieldEmpty) {
  const NodeTopology machine = NodeTopology::synthetic("core:2");
  EXPECT_TRUE(compute_shard_affinity(machine, 0).empty());

  NodeTopology dark = NodeTopology::synthetic("core:2");
  dark.set_object_disabled(ResourceType::kCore, 0, true);
  dark.set_object_disabled(ResourceType::kCore, 1, true);
  EXPECT_TRUE(compute_shard_affinity(dark, 2).empty());
}

}  // namespace
}  // namespace lama::svc
