// MAPBATCH: one line, N jobs, N "JOB <i>" responses plus a trailer —
// per-job error isolation, coalesced tree builds, the rejected threads=
// option, and the batch-aware retrying client (only the shed subset is
// re-sent).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "lama/mapper.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "topo/serialize.hpp"

namespace lama::svc {
namespace {

using lama::test::figure2_allocation;

// One session over an inline service; NODE lines for figure2_allocation()
// are pre-loaded under "a0".
struct Session {
  explicit Session(ServiceConfig config = {.workers = 0})
      : service(config), session(service) {
    const Allocation alloc = figure2_allocation();
    for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
      const std::string response = run(
          "NODE a0 " + std::to_string(alloc.node(i).slots) + " " +
          serialize_topology(alloc.node(i).topo));
      EXPECT_EQ(response.substr(0, 2), "OK") << response;
    }
  }

  std::string run(const std::string& line) {
    std::istringstream no_more;
    std::string response = session.execute(line, no_more);
    if (!response.empty() && response.back() == '\n') response.pop_back();
    return response;
  }

  std::vector<std::string> run_lines(const std::string& line) {
    std::vector<std::string> lines;
    std::string text = run(line);
    std::size_t pos = 0;
    while (pos <= text.size() && !text.empty()) {
      const auto nl = text.find('\n', pos);
      lines.push_back(text.substr(pos, nl - pos));
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }
    return lines;
  }

  MappingService service;
  ProtocolSession session;
};

TEST(MapBatch, JobsAnswerInOrderWithTrailer) {
  Session s;
  const std::vector<std::string> lines =
      s.run_lines("MAPBATCH 3 a0/4/lama:scbnh a0/8/lama:scbnh a0/24/lama:scbnh");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].substr(0, 9), "JOB 0 OK ");
  EXPECT_EQ(lines[1].substr(0, 9), "JOB 1 OK ");
  EXPECT_EQ(lines[2].substr(0, 9), "JOB 2 OK ");
  EXPECT_EQ(lines[3], "OK mapbatch jobs=3 ok=3 err=0");
  // All three jobs share one (allocation, layout): the tree is built once
  // and the later jobs hit it.
  EXPECT_NE(lines[1].find("hit=1"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("hit=1"), std::string::npos) << lines[2];
}

TEST(MapBatch, MalformedJobFailsAloneNotTheBatch) {
  Session s;
  const std::vector<std::string> lines = s.run_lines(
      "MAPBATCH 3 a0/8/lama:scbnh a0/not-a-number/lama:scbnh a0/4/lama:scbnh");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].substr(0, 9), "JOB 0 OK ");
  EXPECT_EQ(lines[1].substr(0, 10), "JOB 1 ERR ");
  EXPECT_EQ(lines[2].substr(0, 9), "JOB 2 OK ");
  EXPECT_EQ(lines[3], "OK mapbatch jobs=3 ok=2 err=1");
}

TEST(MapBatch, EveryFlavorOfBadJobIsIsolated) {
  Session s;
  const std::vector<std::string> lines = s.run_lines(
      "MAPBATCH 6 nosuch/8/lama a0/8/lama:zz a0/8/lama/bogus=1 a0//lama "
      "a0/8/lama:scbnh a0/8/lama:scbnh/threads=2");
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0].substr(0, 10), "JOB 0 ERR ");  // unknown allocation
  EXPECT_EQ(lines[1].substr(0, 10), "JOB 1 ERR ");  // bad layout letter
  EXPECT_EQ(lines[2].substr(0, 10), "JOB 2 ERR ");  // unknown option
  EXPECT_EQ(lines[3].substr(0, 10), "JOB 3 ERR ");  // empty field
  EXPECT_EQ(lines[4].substr(0, 9), "JOB 4 OK ");
  EXPECT_EQ(lines[5], "JOB 5 ERR parse error: unknown MAP option 'threads'");
  EXPECT_EQ(lines[6], "OK mapbatch jobs=6 ok=1 err=5");
}

TEST(MapBatch, CountMismatchRejectsTheWholeLine) {
  Session s;
  EXPECT_EQ(s.run("MAPBATCH 2 a0/8/lama:scbnh").substr(0, 4), "ERR ");
  EXPECT_EQ(s.run("MAPBATCH").substr(0, 4), "ERR ");
  EXPECT_EQ(s.run("MAPBATCH 999999").substr(0, 4), "ERR ");
  // The session survives and still serves.
  EXPECT_EQ(s.run("MAP a0 8 lama:scbnh").substr(0, 3), "OK ");
}

TEST(MapBatch, CountersAccountBatchesJobsAndErrors) {
  Session s;
  s.run_lines("MAPBATCH 3 a0/8/lama:scbnh a0/bad/lama a0/4/lama:scbnh");
  const Counters& c = s.service.counters();
  EXPECT_EQ(c.batched.load(), 1u);
  // Only the two parseable jobs reach the service.
  EXPECT_EQ(c.batch_jobs.load(), 2u);
  EXPECT_EQ(c.requests.load(), 2u);
  EXPECT_EQ(c.completed.load(), 2u);
  EXPECT_EQ(c.errors.load(), 0u);
}

TEST(MapBatch, ThreadsOptionIsRejected) {
  Session s;
  EXPECT_EQ(s.run("MAP a0 8 lama:scbnh threads=4"),
            "ERR parse error: unknown MAP option 'threads'");
  // The session survives and still serves.
  EXPECT_EQ(s.run("MAP a0 8 lama:scbnh").substr(0, 3), "OK ");
}

TEST(MapBatchClient, FormatsJobsWithSlashSeparators) {
  const std::string line = format_mapbatch(
      {{"a0", 8, "lama:scbnh", {"bind=core", "oversub=1"}},
       {"b1", 4, "lama", {}}});
  EXPECT_EQ(line, "MAPBATCH 2 a0/8/lama:scbnh/bind=core/oversub=1 b1/4/lama");
}

TEST(MapBatchClient, RetriesOnlyTheBusySubset) {
  // First attempt: job 1 of 3 is shed. The retry must carry exactly that
  // job, and its response must land back in slot 1.
  std::vector<std::string> sent;
  QueryClient::MultiTransport transport =
      [&sent](const std::string& line) -> std::vector<std::string> {
    sent.push_back(line);
    if (sent.size() == 1) {
      return {"JOB 0 OK first", "JOB 1 ERR busy retry-after=5",
              "JOB 2 OK third", "OK mapbatch jobs=3 ok=2 err=1"};
    }
    return {"JOB 0 OK second-try", "OK mapbatch jobs=1 ok=1 err=0"};
  };
  QueryClient client([](const std::string&) { return std::string(); });
  std::vector<std::uint32_t> sleeps;
  client.set_sleeper([&](std::uint32_t ms) { sleeps.push_back(ms); });

  const BatchResult result = client.map_batch(
      {{"a0", 1, "lama", {}}, {"a0", 2, "lama", {}}, {"a0", 3, "lama", {}}},
      transport);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], "MAPBATCH 3 a0/1/lama a0/2/lama a0/3/lama");
  EXPECT_EQ(sent[1], "MAPBATCH 1 a0/2/lama");  // only the busy job
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.gave_up_busy);
  EXPECT_EQ(result.attempts, 2u);
  ASSERT_EQ(result.responses.size(), 3u);
  EXPECT_EQ(result.responses[0], "OK first");
  EXPECT_EQ(result.responses[1], "OK second-try");
  EXPECT_EQ(result.responses[2], "OK third");
  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_GE(sleeps[0], 5u);  // floored at the server's retry-after hint
}

TEST(MapBatchClient, GivesUpWhenJobsStayBusy) {
  std::size_t sends = 0;
  QueryClient::MultiTransport transport =
      [&sends](const std::string&) -> std::vector<std::string> {
    ++sends;
    return {"JOB 0 ERR busy retry-after=1", "OK mapbatch jobs=1 ok=0 err=1"};
  };
  QueryClient client([](const std::string&) { return std::string(); },
                     {.max_attempts = 3, .base_ms = 1});
  client.set_sleeper([](std::uint32_t) {});
  const BatchResult result =
      client.map_batch({{"a0", 8, "lama", {}}}, transport);
  EXPECT_EQ(sends, 3u);
  EXPECT_TRUE(result.gave_up_busy);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.responses[0], "ERR busy retry-after=1");
}

TEST(MapBatchClient, WholeBatchErrorIsTerminal) {
  std::size_t sends = 0;
  QueryClient::MultiTransport transport =
      [&sends](const std::string&) -> std::vector<std::string> {
    ++sends;
    return {"ERR MAPBATCH declares 2 jobs but carries 1"};
  };
  QueryClient client([](const std::string&) { return std::string(); });
  const BatchResult result =
      client.map_batch({{"a0", 8, "lama", {}}}, transport);
  EXPECT_EQ(sends, 1u);  // no retry for a rejected batch line
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.gave_up_busy);
  EXPECT_EQ(result.trailer, "ERR MAPBATCH declares 2 jobs but carries 1");
}

TEST(MapBatchClient, StreamMultiTransportReadsUntilTrailer) {
  std::istringstream in(
      "JOB 0 OK a\nJOB 1 ERR b\nOK mapbatch jobs=2 ok=1 err=1\nleftover\n");
  std::ostringstream out;
  QueryClient::MultiTransport transport = stream_multi_transport(out, in);
  const std::vector<std::string> lines = transport("MAPBATCH 2 x y");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "OK mapbatch jobs=2 ok=1 err=1");
  EXPECT_EQ(out.str(), "MAPBATCH 2 x y\n");
  // The line after the trailer stays in the stream for the next command.
  std::string leftover;
  std::getline(in, leftover);
  EXPECT_EQ(leftover, "leftover");
}

TEST(MapBatch, EndToEndThroughServeLoop) {
  MappingService service({.workers = 2});
  const Allocation alloc = figure2_allocation();
  std::string input;
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    input += "NODE a0 " + std::to_string(alloc.node(i).slots) + " " +
             serialize_topology(alloc.node(i).topo) + "\n";
  }
  input += "MAPBATCH 2 a0/8/lama:scbnh a0/24/lama:scbnh\nQUIT\n";
  std::istringstream in(input);
  std::ostringstream out;
  const std::size_t served = serve(in, out, service);
  EXPECT_EQ(served, 2u);
  const std::string text = out.str();
  EXPECT_NE(text.find("JOB 0 OK "), std::string::npos) << text;
  EXPECT_NE(text.find("JOB 1 OK "), std::string::npos) << text;
  EXPECT_NE(text.find("OK mapbatch jobs=2 ok=2 err=0"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace lama::svc
