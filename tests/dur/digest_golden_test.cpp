// The state digest is sealed into every journal record and snapshot, and a
// restart compares the restored state's digest with the sealed one. A build
// whose digest of the same state differed would fail that self-check on
// every --state-dir an earlier build wrote, yet kill -9 identity (two
// digests from one build) would not notice. So the values are pinned:
// golden/digest_script.txt drives homogeneous and heterogeneous
// allocations through MAP with and without bind=, OFFLINE/ONLINE of whole
// nodes and of PU sets, REMAP and MAPBATCH, with HEALTH after every
// mutation, and golden/digest_replies.txt holds its replies with each
// HEALTH line reduced to its state_digest (uptime varies). Each MAPBATCH
// gives every job its own layout, so no two jobs race for one tree and the
// coalesced= flags are fixed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(LAMA_TEST_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

TEST(StateDigest, GoldenScriptDigestsAndRepliesAreUnchanged) {
  MappingService service({.workers = 2});
  std::istringstream in(read_golden("digest_script.txt"));
  std::ostringstream out;
  serve(in, out, service);
  const std::vector<std::string> replies = lines_of(out.str());
  const std::vector<std::string> golden =
      lines_of(read_golden("digest_replies.txt"));
  ASSERT_EQ(replies.size(), golden.size());
  std::size_t digests = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    std::string reply = replies[i];
    if (starts_with(reply, "OK health ")) {
      const auto at = reply.find("state_digest=");
      ASSERT_NE(at, std::string::npos) << reply;
      reply = reply.substr(at, reply.find(' ', at) - at);
      ++digests;
    }
    ASSERT_EQ(reply, golden[i]) << "reply " << i;
  }
  EXPECT_EQ(digests, 48u);
}

}  // namespace
}  // namespace lama::svc
