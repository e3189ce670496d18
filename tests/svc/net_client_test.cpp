// The client side under hostile I/O: NetChannel's reassembly over injected
// read/write functions that deliver one byte at a time, interleave EINTR,
// and cut the stream mid-frame — the failure modes real sockets have and
// the blocking client must absorb (satellite of the epoll server work: the
// old stream client assumed full writes and whole lines). Plus SocketClient
// against a live server: both framings, the reconnect-with-backoff path,
// and the QueryClient adapters.
#include "svc/client.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "svc/net_harness.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace lama::svc {
namespace {

using testing::figure2_node_line;
using testing::TestServer;

// A scripted byte source: each call returns at most one byte, and every
// other call fails with EINTR first — the worst legal POSIX stream.
class DripSource {
 public:
  explicit DripSource(std::string bytes) : bytes_(std::move(bytes)) {}

  long read(char* buf, std::size_t len) {
    if (interrupt_ = !interrupt_; interrupt_) {
      errno = EINTR;
      return -1;
    }
    if (pos_ >= bytes_.size()) return 0;  // EOF
    if (len == 0) return 0;
    buf[0] = bytes_[pos_++];
    return 1;
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
  bool interrupt_ = false;
};

// A sink that accepts one byte per call, failing with EINTR every other
// call, and records everything written.
class DripSink {
 public:
  long write(const char* buf, std::size_t len) {
    if (interrupt_ = !interrupt_; interrupt_) {
      errno = EINTR;
      return -1;
    }
    if (len == 0) return 0;
    bytes_.push_back(buf[0]);
    return 1;
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
  bool interrupt_ = false;
};

NetChannel channel_over(DripSource& src, DripSink& sink) {
  return NetChannel(
      [&src](char* buf, std::size_t len) { return src.read(buf, len); },
      [&sink](const char* buf, std::size_t len) {
        return sink.write(buf, len);
      });
}

TEST(NetChannel, WriteAllSurvivesShortWritesAndEintr) {
  DripSource src("");
  DripSink sink;
  NetChannel channel = channel_over(src, sink);
  const std::string data = "MAP a 4 lama:scbnh\nSTATS\n";
  ASSERT_TRUE(channel.write_all(data));
  EXPECT_EQ(sink.bytes(), data);
}

TEST(NetChannel, WriteAllReportsHardErrors) {
  NetChannel channel(
      [](char*, std::size_t) { return 0L; },
      [](const char*, std::size_t) {
        errno = EPIPE;
        return -1L;
      });
  EXPECT_FALSE(channel.write_all("doomed"));
}

TEST(NetChannel, ReadLineReassemblesAcrossShortReads) {
  DripSource src("OK node a n=1\r\nOK hit=1 np=4\nleftover");
  DripSink sink;
  NetChannel channel = channel_over(src, sink);
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "OK node a n=1");  // '\r' stripped
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "OK hit=1 np=4");
  // The unterminated tail never completes: EOF before a newline.
  EXPECT_FALSE(channel.read_line(line));
}

TEST(NetChannel, ReadFrameReassemblesAcrossShortReads) {
  const std::string wire = encode_frame(WireVerb::kOk, "OK hit=1 np=4\n") +
                           encode_frame(WireVerb::kErr, "ERR nope\n");
  DripSource src(wire);
  DripSink sink;
  NetChannel channel = channel_over(src, sink);

  WireVerb verb = WireVerb::kErr;
  std::string payload;
  std::string error;
  ASSERT_TRUE(channel.read_frame(verb, payload, error)) << error;
  EXPECT_EQ(verb, WireVerb::kOk);
  EXPECT_EQ(payload, "OK hit=1 np=4\n");
  ASSERT_TRUE(channel.read_frame(verb, payload, error)) << error;
  EXPECT_EQ(verb, WireVerb::kErr);
  EXPECT_EQ(payload, "ERR nope\n");
}

TEST(NetChannel, ReadFrameReportsTruncationAsClosed) {
  const std::string wire = encode_frame(WireVerb::kOk, "OK partial\n");
  DripSource src(wire.substr(0, wire.size() - 4));
  DripSink sink;
  NetChannel channel = channel_over(src, sink);
  WireVerb verb = WireVerb::kOk;
  std::string payload;
  std::string error;
  EXPECT_FALSE(channel.read_frame(verb, payload, error));
  EXPECT_EQ(error, "connection closed");
}

TEST(NetChannel, ReadFrameReportsFramingDamage) {
  std::string wire = encode_frame(WireVerb::kOk, "OK sealed\n");
  wire[kFrameHeaderBytes] ^= 0x01;
  DripSource src(wire);
  DripSink sink;
  NetChannel channel = channel_over(src, sink);
  WireVerb verb = WireVerb::kOk;
  std::string payload;
  std::string error;
  EXPECT_FALSE(channel.read_frame(verb, payload, error));
  EXPECT_EQ(error, "frame CRC mismatch");
}

TEST(NetChannel, WriteFrameEmitsDecodableBytes) {
  DripSource src("");
  DripSink sink;
  NetChannel channel = channel_over(src, sink);
  ASSERT_TRUE(channel.write_frame(WireVerb::kMap, "MAP a 2 lama"));

  WireFrame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_frame(sink.bytes(), frame, consumed, error),
            FrameStatus::kFrame);
  EXPECT_EQ(frame.verb, WireVerb::kMap);
  EXPECT_EQ(frame.payload, "MAP a 2 lama");
  EXPECT_EQ(consumed, sink.bytes().size());
}

TEST(NetChannel, BufferedReportsUnconsumedBytes) {
  // One read may deliver several responses; what read_line did not return
  // stays buffered for the next call rather than being dropped.
  NetChannel channel(
      [served = false](char* buf, std::size_t len) mutable -> long {
        if (served) return 0;
        served = true;
        const std::string_view all = "OK one\nOK two\n";
        const std::size_t n = std::min(len, all.size());
        std::memcpy(buf, all.data(), n);
        return static_cast<long>(n);
      },
      [](const char*, std::size_t len) { return static_cast<long>(len); });
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "OK one");
  EXPECT_EQ(channel.buffered(), std::strlen("OK two\n"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "OK two");
  EXPECT_EQ(channel.buffered(), 0u);
}

// ---- SocketClient against a live server ----------------------------------

TEST(SocketClient, TextRequestRoundTrips) {
  TestServer server;
  ConnectConfig config;
  config.address = "tcp:127.0.0.1:" + std::to_string(server.port());
  SocketClient client(config);

  auto reply = client.request(figure2_node_line("a"));
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0], "OK node a n=1");
  reply = client.request("MAP a 4 lama:scbnh");
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0],
            "OK hit=0 coalesced=0 np=4 sweeps=1 nodes=0,0,0,0 pus=0,4,2,6");
  EXPECT_EQ(client.reconnects(), 0u);
}

TEST(SocketClient, BinaryRequestRoundTrips) {
  TestServer server;
  ConnectConfig config;
  config.address = ":" + std::to_string(server.port());
  config.binary = true;
  SocketClient client(config);

  auto reply = client.request(figure2_node_line("a"));
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0], "OK node a n=1");
  // Multi-line responses come back as one frame, split into lines.
  reply = client.request("MAPBATCH 2 a/2/lama:scbnh a/4/lama:hcsbn");
  ASSERT_EQ(reply.size(), 3u);
  EXPECT_TRUE(reply[0].rfind("JOB 0 ", 0) == 0);
  EXPECT_TRUE(reply[1].rfind("JOB 1 ", 0) == 0);
  EXPECT_TRUE(reply[2].rfind("OK mapbatch ", 0) == 0);
}

TEST(SocketClient, UnknownKeywordInBinaryModeFailsLocally) {
  TestServer server;
  ConnectConfig config;
  config.address = ":" + std::to_string(server.port());
  config.binary = true;
  SocketClient client(config);
  const auto reply = client.request("NOPE really");
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0], "ERR unknown command keyword: NOPE");
  EXPECT_EQ(client.reconnects(), 0u);  // no reconnect burned on a local error
}

TEST(SocketClient, ConnectFailureExhaustsRetriesWithErrLine) {
  ConnectConfig config;
  config.address = "tcp:127.0.0.1:1";  // nothing listens on port 1
  config.max_attempts = 2;
  config.backoff_base_ms = 1;
  SocketClient client(config);
  const auto reply = client.request("HEALTH");
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_TRUE(reply[0].rfind("ERR connect: ", 0) == 0);
  EXPECT_FALSE(client.connected());
}

TEST(SocketClient, ReconnectsAfterServerRestart) {
  // First server on a kernel-picked port; remember the port, kill the
  // server, bring up a fresh one on the same port, and require the client
  // to ride over the break (reconnects() == 1, request answered).
  ServiceConfig service_config{.workers = 0};
  ConnectConfig config;
  config.backoff_base_ms = 1;
  std::uint16_t port = 0;
  auto first = std::make_unique<TestServer>();
  port = first->port();
  config.address = "tcp:127.0.0.1:" + std::to_string(port);

  SocketClient client(config);
  auto reply = client.request("HEALTH");
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_TRUE(reply[0].rfind("OK health ", 0) == 0);

  first.reset();  // connection dies with the server

  MappingService service(service_config);
  ShardedServer second(service, ShardServerConfig{});
  second.listen("tcp:127.0.0.1:" + std::to_string(port));
  second.start();

  reply = client.request("HEALTH");
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_TRUE(reply[0].rfind("OK health ", 0) == 0)
      << reply[0];
  EXPECT_GE(client.reconnects(), 1u);
  second.stop();
}

TEST(SocketClient, QueryClientAdaptersCarryTheRetryLoop) {
  TestServer server;
  ConnectConfig config;
  config.address = ":" + std::to_string(server.port());
  SocketClient socket(config);

  QueryClient client(socket.transport(), {.max_attempts = 3});
  ASSERT_TRUE(client.send(figure2_node_line("a")).ok());
  const QueryResult result = client.send("MAP a 2 lama:scbnh");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 1u);

  const BatchResult batch = client.map_batch(
      {{"a", 2, "lama:scbnh", {}}, {"a", 4, "lama:scbnh", {}}},
      socket.multi_transport());
  EXPECT_TRUE(batch.ok());
  ASSERT_EQ(batch.responses.size(), 2u);
  EXPECT_TRUE(batch.responses[0].rfind("OK ", 0) == 0);
}

}  // namespace
}  // namespace lama::svc
