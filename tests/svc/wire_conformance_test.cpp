// Differential conformance: every protocol verb driven through the text
// socket framing and the binary wire framing against real servers, with an
// in-process ProtocolSession as the reference. The contract under test is
// the one docs/service.md promises — the binary payload IS the text
// command, the response payload IS the text response — so for every
// deterministic verb all three paths must produce byte-identical responses
// and leave byte-identical control-plane state (pinned by the durability
// digest). The error paths the framing adds (oversized frame, bad CRC,
// truncated frame, unknown verb) are pinned here too.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/strings.hpp"
#include "svc/net_harness.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace lama::svc {
namespace {

using testing::BlockingClient;
using testing::figure2_node_line;
using testing::frame_for;
using testing::TestServer;

// A command script: the text command line plus its continuation lines (sent
// after the command, exactly as a text client would pipeline them).
struct Command {
  std::string line;
  std::vector<std::string> continuation;

  std::string text() const {
    std::string out = line + "\n";
    for (const std::string& extra : continuation) out += extra + "\n";
    return out;
  }
  std::string payload() const {
    std::string out = line;
    for (const std::string& extra : continuation) out += "\n" + extra;
    return out;
  }
};

// One command of every verb, exercising both success and protocol-error
// responses. STATS/METRICS/HEALTH are deliberately absent: their responses
// embed wall-clock fields, so they get structural (not byte) conformance in
// their own test below.
std::vector<Command> deterministic_script() {
  return {
      {figure2_node_line("a"), {}},
      {figure2_node_line("b"), {}},
      {"MAP a 4 lama:scbnh", {}},
      {"MAP a 4 lama:scbnh", {}},  // warm: hit=1
      {"MAP a 8 lama:hcsbn bind=core oversub=1", {}},
      {"MAP ghost 2 lama", {}},            // unknown allocation -> ERR
      {"MAP a", {}},                       // malformed -> ERR
      {"NOPE really", {}},                 // unknown command -> ERR
      {"BATCH 3",
       {"MAP a 1 lama:scbnh", "MAP nosuch 1 lama", "MAP b 2 lama:scbnh"}},
      {"MAPBATCH 2 a/2/lama:scbnh a/4/lama:hcsbn/bind=core", {}},
      {"OFFLINE a 0 1", {}},
      {"MAP a 4 lama:scbnh", {}},          // epoch moved: hit=0 again
      {"ONLINE a 0 1", {}},
      {"REMAP a", {}},
      {"REMAP ghost", {}},                 // ERR
      {"OPTIMIZE a 4 pattern=ring:64 budget=4 passes=1", {}},
      {"OPTIMIZE a 2 matrix=2", {"0 1 64", "1 0 64"}},
      {"OPTIMIZE a 2 matrix=nope", {}},    // malformed count -> ERR
      {"TRACE last", {}},  // tracing disabled: deterministic ERR
      {"TRACE nope", {}},  // bad selector -> ERR
  };
}

// Reference: the script through an in-process session, workers=0.
struct Reference {
  std::vector<std::string> responses;  // one per command, with trailing \n
  std::uint64_t digest = 0;
};

Reference run_reference(const std::vector<Command>& script) {
  MappingService service({.workers = 0});
  ProtocolSession session(service);
  Reference ref;
  for (const Command& command : script) {
    std::string continuation;
    for (const std::string& extra : command.continuation) {
      continuation += extra + "\n";
    }
    std::istringstream more(continuation);
    ref.responses.push_back(session.execute(command.line, more));
  }
  ref.digest = session.state_digest();
  return ref;
}

// The binary framing for one command. A keyword with no wire verb cannot
// cross the binary framing at all — any stamp is a mismatch, rejected at
// the verb layer before dispatch — so such commands ride under kMap and
// their expected response is the verb-layer error, not the reference's
// unknown-keyword error. Both rejections leave state untouched, so the
// digest comparison still holds.
std::string binary_frame(const Command& command) {
  const std::string payload = command.payload();
  const auto space = payload.find_first_of(" \t\n");
  if (wire_verb_for_keyword(payload.substr(0, space))) {
    return frame_for(payload);
  }
  return encode_frame(WireVerb::kMap, payload);
}

std::string binary_expected(const Command& command,
                            const std::string& reference) {
  const auto space = command.line.find_first_of(" \t");
  if (wire_verb_for_keyword(command.line.substr(0, space))) return reference;
  return "ERR wire verb does not match command keyword\n";
}

std::uint64_t digest_over_text(std::uint16_t port) {
  BlockingClient client(port);
  EXPECT_TRUE(client.send_all("HEALTH\n"));
  std::string line;
  EXPECT_TRUE(client.read_line(line));
  const auto at = line.find("state_digest=");
  EXPECT_NE(at, std::string::npos) << line;
  return std::stoull(line.substr(at + 13), nullptr, 16);
}

// The script with the framing alternating per command, each command on a
// fresh connection; every response must match the reference.
void run_interleaved(const std::vector<Command>& script, const Reference& ref,
                     std::uint16_t port) {
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i % 2 == 0) {
      BlockingClient text(port);
      ASSERT_TRUE(text.send_all(script[i].text()));
      std::string got;
      std::string line;
      while (got.size() < ref.responses[i].size() && text.read_line(line)) {
        got += line + "\n";
      }
      EXPECT_EQ(got, ref.responses[i]) << script[i].line;
    } else {
      BlockingClient binary(port);
      ASSERT_TRUE(binary.send_all(binary_frame(script[i])));
      WireVerb verb = WireVerb::kOk;
      std::string payload;
      ASSERT_TRUE(binary.read_frame(verb, payload)) << script[i].line;
      EXPECT_EQ(payload, binary_expected(script[i], ref.responses[i]))
          << script[i].line;
    }
  }
}

TEST(WireConformance, TextSocketMatchesReferenceByteForByte) {
  const std::vector<Command> script = deterministic_script();
  const Reference ref = run_reference(script);

  TestServer server;
  BlockingClient client(server.port());
  std::string expected;
  std::string sent;
  for (std::size_t i = 0; i < script.size(); ++i) {
    sent += script[i].text();
    expected += ref.responses[i];
  }
  ASSERT_TRUE(client.send_all(sent));

  // The text stream has no response framing beyond the reference's own
  // bytes: read exactly that many and require identity.
  std::string got;
  std::string line;
  while (got.size() < expected.size() && client.read_line(line)) {
    got += line + "\n";
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(digest_over_text(server.port()), ref.digest);
}

TEST(WireConformance, BinarySocketMatchesReferencePerCommand) {
  const std::vector<Command> script = deterministic_script();
  const Reference ref = run_reference(script);

  TestServer server;
  BlockingClient client(server.port());
  // Pipeline every frame, then read the responses in order: one frame per
  // command, payload byte-identical to the reference response.
  std::string sent;
  for (const Command& command : script) sent += binary_frame(command);
  ASSERT_TRUE(client.send_all(sent));

  for (std::size_t i = 0; i < script.size(); ++i) {
    WireVerb verb = WireVerb::kOk;
    std::string payload;
    ASSERT_TRUE(client.read_frame(verb, payload)) << script[i].line;
    const std::string expected = binary_expected(script[i], ref.responses[i]);
    EXPECT_EQ(payload, expected) << script[i].line;
    const WireVerb expected_verb =
        starts_with(expected, "ERR") ? WireVerb::kErr : WireVerb::kOk;
    EXPECT_EQ(verb, expected_verb) << script[i].line;
  }
  EXPECT_EQ(digest_over_text(server.port()), ref.digest);
}

TEST(WireConformance, BothFramingsLeaveIdenticalStateOnOneServer) {
  // Interleave framings against one server, a fresh connection per command:
  // text and binary connections mutate the same session; the digest must
  // track the combined command order regardless of which framing carried
  // each command — or, at four shards, which shard the kernel hashed each
  // connection to.
  const std::vector<Command> script = deterministic_script();
  const Reference ref = run_reference(script);

  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TestServer server({}, {.workers = 0}, shards);
    run_interleaved(script, ref, server.port());
    EXPECT_EQ(digest_over_text(server.port()), ref.digest);
  }
}

TEST(WireConformance, VolatileVerbsAgreeStructurally) {
  // STATS/METRICS/HEALTH embed uptime and timing percentiles, so the two
  // framings are compared structurally: same leading token, same line
  // count for METRICS ("# EOF"-terminated), a parseable digest for HEALTH.
  TestServer server;

  BlockingClient text(server.port());
  ASSERT_TRUE(text.send_all("STATS\nHEALTH\n"));
  std::string stats_line, health_line;
  ASSERT_TRUE(text.read_line(stats_line));
  ASSERT_TRUE(text.read_line(health_line));
  EXPECT_TRUE(starts_with(stats_line, "STATS "));
  EXPECT_TRUE(starts_with(health_line, "OK health status=ready"));

  BlockingClient binary(server.port());
  ASSERT_TRUE(binary.send_all(frame_for("STATS") + frame_for("METRICS") +
                              frame_for("HEALTH")));
  WireVerb verb = WireVerb::kOk;
  std::string payload;
  ASSERT_TRUE(binary.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kOk);
  EXPECT_TRUE(starts_with(payload, "STATS "));
  // The socket servers surface the net counters in STATS.
  EXPECT_NE(payload.find("net_accepted="), std::string::npos);

  ASSERT_TRUE(binary.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kOk);
  EXPECT_TRUE(starts_with(payload, "# HELP"));
  EXPECT_NE(payload.find("# EOF\n"), std::string::npos);
  EXPECT_NE(payload.find("lama_net_accepted_total"), std::string::npos);

  ASSERT_TRUE(binary.read_frame(verb, payload));
  EXPECT_TRUE(starts_with(payload, "OK health "));
}

TEST(WireConformance, QuitClosesBothFramings) {
  TestServer server;
  {
    BlockingClient text(server.port());
    ASSERT_TRUE(text.send_all("QUIT\n"));
    std::string line;
    ASSERT_TRUE(text.read_line(line));
    EXPECT_EQ(line, "OK bye");
    EXPECT_TRUE(text.read_eof());
  }
  {
    BlockingClient binary(server.port());
    ASSERT_TRUE(binary.send_all(frame_for("QUIT")));
    WireVerb verb = WireVerb::kOk;
    std::string payload;
    ASSERT_TRUE(binary.read_frame(verb, payload));
    EXPECT_EQ(payload, "OK bye\n");
    EXPECT_TRUE(binary.read_eof());
  }
}

// ---- Framing error paths -------------------------------------------------

TEST(WireConformance, OversizedFrameAnswersErrAndCloses) {
  TestServer server;
  BlockingClient client(server.port());
  // Header claiming 2 MiB: the server must refuse from the header alone.
  std::string header;
  header.push_back(static_cast<char>(kWireMagic));
  header.push_back(static_cast<char>(WireVerb::kMap));
  const std::uint32_t len = 2u << 20;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  header.append(4, '\0');
  ASSERT_TRUE(client.send_all(header));

  WireVerb verb = WireVerb::kOk;
  std::string payload;
  ASSERT_TRUE(client.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kErr);
  EXPECT_TRUE(starts_with(payload, "ERR oversized frame"));
  EXPECT_TRUE(client.read_eof());
}

TEST(WireConformance, BadCrcAnswersErrAndCloses) {
  TestServer server;
  BlockingClient client(server.port());
  std::string frame = frame_for("MAP a 2 lama");
  frame[kFrameHeaderBytes] ^= 0x01;
  ASSERT_TRUE(client.send_all(frame));

  WireVerb verb = WireVerb::kOk;
  std::string payload;
  ASSERT_TRUE(client.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kErr);
  EXPECT_TRUE(starts_with(payload, "ERR frame CRC mismatch"));
  EXPECT_TRUE(client.read_eof());
  EXPECT_GE(server.counters().frame_errors.load(std::memory_order_relaxed),
            1u);
}

TEST(WireConformance, TruncatedFrameAtDisconnectIsDroppedSilently) {
  TestServer server;
  {
    BlockingClient client(server.port());
    const std::string frame = frame_for("MAP a 2 lama");
    ASSERT_TRUE(client.send_all(frame.substr(0, frame.size() - 3)));
    client.shutdown_write();
    // A torn tail is not an error the peer can act on: no response, the
    // connection just closes.
    EXPECT_TRUE(client.read_eof());
  }
  // Quiesce: the disconnect counter moves, the frame never dispatched.
  BlockingClient probe(server.port());
  ASSERT_TRUE(probe.send_all("HEALTH\n"));
  std::string line;
  ASSERT_TRUE(probe.read_line(line));
  EXPECT_GE(
      server.counters().midstream_disconnects.load(std::memory_order_relaxed),
      1u);
  EXPECT_EQ(server.counters().binary_requests.load(std::memory_order_relaxed),
            0u);
}

TEST(WireConformance, UnknownVerbAnswersErrAndSurvives) {
  TestServer server;
  BlockingClient client(server.port());
  ASSERT_TRUE(client.send_all(
      encode_frame(static_cast<WireVerb>(0x7F), "whatever") +
      frame_for(figure2_node_line("a"))));

  WireVerb verb = WireVerb::kOk;
  std::string payload;
  ASSERT_TRUE(client.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kErr);
  EXPECT_TRUE(starts_with(payload, "ERR unknown wire verb"));
  // The connection survived: the pipelined NODE still answers.
  ASSERT_TRUE(client.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kOk);
  EXPECT_EQ(payload, "OK node a n=1\n");
}

TEST(WireConformance, VerbKeywordMismatchAnswersErrAndSurvives) {
  TestServer server;
  BlockingClient client(server.port());
  // A sealed frame whose verb byte says MAP but whose payload says STATS:
  // dispatch cross-checks and refuses without executing either verb.
  ASSERT_TRUE(client.send_all(encode_frame(WireVerb::kMap, "STATS") +
                              frame_for("HEALTH")));

  WireVerb verb = WireVerb::kOk;
  std::string payload;
  ASSERT_TRUE(client.read_frame(verb, payload));
  EXPECT_EQ(verb, WireVerb::kErr);
  EXPECT_TRUE(starts_with(payload, "ERR wire verb"));
  ASSERT_TRUE(client.read_frame(verb, payload));
  EXPECT_TRUE(starts_with(payload, "OK health "));
}

TEST(WireConformance, OverlongTextLineAnswersErrAndCloses) {
  NetConfig net;
  net.max_request_bytes = 256;
  TestServer server(net);
  BlockingClient client(server.port());
  ASSERT_TRUE(client.send_all(std::string(512, 'A')));  // no newline ever

  std::string line;
  ASSERT_TRUE(client.read_line(line));
  EXPECT_TRUE(starts_with(line, "ERR overlong request"));
  EXPECT_TRUE(client.read_eof());
}

TEST(WireConformance, ConnectionCapRefusesTheExtraPeer) {
  NetConfig net;
  net.max_connections = 2;
  TestServer server(net);
  BlockingClient first(server.port());
  BlockingClient second(server.port());
  // Make sure both are registered before the third arrives.
  ASSERT_TRUE(first.send_all("HEALTH\n"));
  std::string line;
  ASSERT_TRUE(first.read_line(line));
  ASSERT_TRUE(second.send_all("HEALTH\n"));
  ASSERT_TRUE(second.read_line(line));

  BlockingClient third(server.port());
  EXPECT_TRUE(third.read_eof());
  EXPECT_GE(server.counters().rejected.load(std::memory_order_relaxed), 1u);
}

}  // namespace
}  // namespace lama::svc
