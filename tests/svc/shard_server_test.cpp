// The sharded server core: N SO_REUSEPORT event loops over one
// MappingService and one ProtocolSession. The suite soaks a 4-shard server
// with pipelined text and binary clients while a sampler reads the
// aggregated STATS/METRICS surface (the cross-shard counter traffic TSan
// must bless), and checks the invariants the single-loop soak pins, now
// summed across shards: exactly-once request/response pairing, accepted ==
// closed at quiescence, and dispatched() agreeing with the counters. The
// control plane is one session whichever shard a connection lands on —
// concurrent mutations from every shard journal into one store that
// recovers to the live digest. The connection cap is global — one
// ConnectionLimiter shared by every shard — and compute_shard_affinity()
// is LAMA mapping its own server.
#include "svc/shard_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dur/state_store.hpp"
#include "dur/temp_dir.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "svc/net_harness.hpp"
#include "svc/protocol.hpp"
#include "svc/wire.hpp"
#include "topo/node_topology.hpp"

namespace lama::svc {
namespace {

using testing::BlockingClient;
using testing::figure2_node_line;
using testing::frame_for;
using testing::TestServer;

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
  TestServer server({}, {.workers = 2}, 4);
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
  TestServer server(net, {.workers = 0}, 4);

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
  TestServer server;
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

TEST(ShardServer, EveryShardSharesOneSession) {
  // A NODE defined on one connection is seen by MAP, OFFLINE, REMAP and
  // ONLINE on sixteen fresh ones, whichever of the four shards the kernel
  // hashed each to — and every availability change moves one epoch.
  TestServer server({}, {.workers = 0}, 4);
  std::string line;
  {
    BlockingClient client(server.port());
    ASSERT_TRUE(client.send_all(figure2_node_line("shared") + "\n"));
    ASSERT_TRUE(client.read_line(line));
    ASSERT_EQ(line, "OK node shared n=1");
  }
  std::size_t epoch = 1;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string pu = std::to_string(i / 4);
    const std::string commands[] = {"MAP shared 4 lama:scbnh",
                                    "OFFLINE shared 0 " + pu, "REMAP shared",
                                    "ONLINE shared 0 " + pu};
    const std::string& command = commands[i % 4];
    BlockingClient client(server.port());
    ASSERT_TRUE(client.send_all(command + "\n"));
    ASSERT_TRUE(client.read_line(line)) << command;
    EXPECT_TRUE(starts_with(line, "OK")) << command << " -> " << line;
    if (i % 2 == 1) {
      EXPECT_NE(line.find(" epoch=" + std::to_string(++epoch)),
                std::string::npos)
          << line;
    }
  }
  std::size_t shards_used = 0;
  for (std::size_t i = 0; i < server.server().shards(); ++i) {
    if (server.server().shard_counters(i).accepted.load() > 0) ++shards_used;
  }
  EXPECT_GE(shards_used, 2u);  // 17 connections on one shard: p ~ 1e-10
}

// One client of the mutation soak: its own connection, a seeded mix of
// every mutating verb (and MAP) over the two shared allocations. Each reply
// must be one well-formed OK or ERR line; ERR is legitimate (a REMAP can
// race an OFFLINE that leaves too few PUs).
void mutate(std::uint16_t port, std::size_t client, std::size_t rounds) {
  BlockingClient conn(port);
  std::string line;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::string id = (r + client) % 2 == 0 ? "x" : "y";
    const std::string node = std::to_string((r / 2 + client) % 2);
    std::string command;
    switch ((r + client) % 5) {
      case 0:
        command = r < 5 ? figure2_node_line(id) : "MAP " + id + " 8 lama:nsch";
        break;
      case 1: command = "OFFLINE " + id + " " + node; break;
      case 2: command = "MAP " + id + " 4 lama:scbnh"; break;
      case 3: command = "ONLINE " + id + " " + node; break;
      default: command = "REMAP " + id; break;
    }
    ASSERT_TRUE(conn.send_all(command + "\n"));
    ASSERT_TRUE(conn.read_line(line, 30000)) << command;
    EXPECT_TRUE(starts_with(line, "OK ") || starts_with(line, "ERR "))
        << command << " -> " << line;
  }
}

TEST(ShardServer, ConcurrentMutationsRecoverToTheLiveDigest) {
  // Four shards mutate two shared allocations at once while a sampler reads
  // STATS, METRICS and HEALTH (the store's counters from every shard). The
  // journal must serialize the mutations in the order they applied: a
  // session restored from the directory reports the live digest.
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  dur::StateStore store({.dir = dir.path(), .snapshot_every = 16});
  MappingService service({.workers = 2});
  service.attach_durability(&store);
  std::uint64_t live = 0;
  {
    ShardedServer server(service, ShardServerConfig{4, {}, {}});
    server.session().restore_from(store);
    server.listen("tcp:127.0.0.1:0");
    server.start();
    const std::uint16_t port = server.bound_address().port;
    {
      BlockingClient setup(port);
      std::string line;
      for (const char* id : {"x", "y"}) {
        for (int n = 0; n < 2; ++n) {
          ASSERT_TRUE(setup.send_all(figure2_node_line(id) + "\n"));
          ASSERT_TRUE(setup.read_line(line));
          ASSERT_TRUE(starts_with(line, "OK node")) << line;
        }
      }
    }
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
      BlockingClient probe(port);
      std::string line;
      while (sampling.load(std::memory_order_relaxed)) {
        if (!probe.send_all("STATS\nMETRICS\nHEALTH\n")) break;
        ASSERT_TRUE(probe.read_line(line));
        EXPECT_TRUE(starts_with(line, "STATS ")) << line;
        do {
          ASSERT_TRUE(probe.read_line(line));
        } while (line != "# EOF");
        ASSERT_TRUE(probe.read_line(line));
        EXPECT_TRUE(starts_with(line, "OK health ")) << line;
      }
    });
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([port, c] { mutate(port, c, 40); });
    }
    for (std::thread& t : clients) t.join();
    sampling.store(false, std::memory_order_relaxed);
    sampler.join();
    server.stop();
    live = server.session().state_digest();
  }
  EXPECT_GE(store.stats().snapshots, 1u);  // rotations ran under the soak

  dur::StateStore reopened({.dir = dir.path()});
  MappingService fresh({.workers = 0});
  ProtocolSession restored(fresh);
  const ProtocolSession::RecoveryInfo info = restored.restore_from(reopened);
  EXPECT_TRUE(info.recovered);
  EXPECT_EQ(info.replay_errors, 0u);
  std::istringstream no_more;
  const std::string health = restored.execute("HEALTH", no_more);
  EXPECT_NE(health.find(" recovery_ok=1 "), std::string::npos) << health;
  EXPECT_EQ(restored.state_digest(), live);
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
