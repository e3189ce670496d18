// Pipelined soak over real sockets: several client threads hammer a
// one-shard server with deep pipelines of text and binary requests while the
// loop thread dispatches and a sampler thread reads STATS/METRICS
// concurrently (the cross-thread counter surface TSan must bless). The
// invariant under test is exactly-once accounting (svc/counters.hpp):
// every request that enters dispatch is counted in exactly one of
// text_requests/binary_requests and produces exactly one response — so at
// quiescence requests == responses, accepted == closed, and the number of
// OK replies observed by the clients equals the number of MAPs they sent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "support/strings.hpp"
#include "svc/net_harness.hpp"
#include "svc/wire.hpp"

namespace lama::svc {
namespace {

using testing::BlockingClient;
using testing::figure2_node_line;
using testing::frame_for;
using testing::TestServer;

constexpr std::size_t kClientThreads = 4;
constexpr std::size_t kRequestsPerClient = 200;
constexpr std::size_t kPipelineDepth = 16;

// One client connection: pipeline `total` MAP requests in windows of
// `depth`, return how many OK responses came back. Text and binary clients
// differ only in framing.
std::size_t pump_text(std::uint16_t port, std::size_t total,
                      std::size_t depth, const std::string& id) {
  BlockingClient client(port);
  // Session state is per-connection: define the allocation first.
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

TEST(NetSoak, PipelinedClientsAccountExactlyOnce) {
  // Workers on: batches inside the service fan out while the loop thread
  // dispatches, which is exactly the cross-thread traffic TSan watches.
  TestServer server({}, {.workers = 2});

  std::atomic<std::size_t> ok_total{0};
  std::atomic<bool> sampling{true};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string id = "alloc" + std::to_string(t);
      const std::size_t ok =
          t % 2 == 0
              ? pump_text(server.port(), kRequestsPerClient, kPipelineDepth,
                          id)
              : pump_binary(server.port(), kRequestsPerClient, kPipelineDepth,
                            id);
      ok_total.fetch_add(ok, std::memory_order_relaxed);
    });
  }
  // Concurrent observer: STATS and METRICS read the NetCounters from
  // outside the loop thread for the whole soak.
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      BlockingClient probe(server.port());
      if (!probe.send_all(frame_for("STATS") + frame_for("METRICS"))) break;
      WireVerb verb = WireVerb::kErr;
      std::string payload;
      if (!probe.read_frame(verb, payload)) break;
      EXPECT_TRUE(starts_with(payload, "STATS "));
      if (!probe.read_frame(verb, payload)) break;
      EXPECT_TRUE(starts_with(payload, "# HELP"));
    }
  });

  for (std::thread& t : clients) t.join();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();
  server.server().stop();  // drain: every buffered command dispatched

  const NetCounters& net = server.counters();
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };

  // Every MAP answered OK exactly once: nothing lost, nothing duplicated.
  EXPECT_EQ(ok_total.load(), kClientThreads * kRequestsPerClient);
  // Exactly-once pairing at the server: one response per counted request.
  EXPECT_EQ(load(net.text_requests) + load(net.binary_requests),
            load(net.responses));
  // No framing damage, no torn tails in a clean soak.
  EXPECT_EQ(load(net.frame_errors), 0u);
  EXPECT_EQ(load(net.midstream_disconnects), 0u);
  // Every accepted connection was closed by the stop() drain.
  EXPECT_EQ(load(net.accepted), load(net.closed));
  EXPECT_EQ(net.active(), 0u);
  // The loop's dispatch tally agrees with the counter pairing.
  EXPECT_EQ(server.server().dispatched(),
            load(net.text_requests) + load(net.binary_requests));
}

TEST(NetSoak, TransportStagesTimeEveryRequestWithoutATracer) {
  TestServer server;
  ASSERT_EQ(server.service().tracer(), nullptr);
  constexpr std::size_t kRequests = 40;
  {
    BlockingClient client(server.port());
    std::string burst = figure2_node_line("a") + "\n";
    for (std::size_t i = 1; i < kRequests; ++i) {
      burst += "MAP a " + std::to_string(1 + i % 8) + " lama:scbnh\n";
    }
    ASSERT_TRUE(client.send_all(burst));
    std::string line;
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.read_line(line)) << i;
      EXPECT_TRUE(starts_with(line, "OK")) << line;
    }
  }
  server.server().stop();  // the loop thread is done writing the stages

  const obs::StageStats& stats = server.service().stage_stats();
  const auto count = [&stats](obs::Stage stage) {
    return stats.histogram(stage).snapshot().count;
  };
  EXPECT_EQ(count(obs::Stage::kDispatch), kRequests);
  EXPECT_GT(count(obs::Stage::kNetRead), 0u);
  EXPECT_GT(count(obs::Stage::kNetWrite), 0u);
  // The NODE line opens no request scope; each MAP line opens one.
  EXPECT_EQ(count(obs::Stage::kRequest), kRequests - 1);
}

TEST(NetSoak, InterleavedConnectDisconnectStaysBalanced) {
  // Churn: short-lived connections (some quitting cleanly, some just
  // closing) interleaved with a long-lived pipeliner. accepted must equal
  // closed once everything quiesces, with zero counter drift.
  TestServer server;

  std::thread churn([&] {
    for (std::size_t i = 0; i < 32; ++i) {
      BlockingClient client(server.port());
      if (i % 2 == 0) {
        if (!client.send_all(i % 4 == 0 ? std::string("HEALTH\n")
                                        : frame_for("HEALTH"))) {
          continue;
        }
        std::string line;
        WireVerb verb = WireVerb::kErr;
        if (i % 4 == 0) {
          client.read_line(line);
        } else {
          client.read_frame(verb, line);
        }
      }
      // Odd iterations: connect and vanish without a single byte.
    }
  });
  const std::size_t ok =
      pump_text(server.port(), 100, 8, "churnalloc");
  churn.join();
  EXPECT_EQ(ok, 100u);

  server.server().stop();
  const NetCounters& net = server.counters();
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  EXPECT_EQ(load(net.accepted), load(net.closed));
  EXPECT_EQ(load(net.text_requests) + load(net.binary_requests),
            load(net.responses));
  EXPECT_EQ(net.active(), 0u);
}

}  // namespace
}  // namespace lama::svc
