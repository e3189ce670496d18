// The OPTIMIZE verb end to end: service-level caching and counters, epoch
// invalidation, protocol framing (pattern= and matrix= payloads), and the
// determinism contract across worker-pool sizes.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/fixtures.hpp"
#include "opt/optimizer.hpp"
#include "sim/traffic.hpp"
#include "support/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "tmatch/comm_matrix.hpp"

namespace lama::svc {
namespace {

using lama::test::figure2_allocation;

constexpr const char* kFigure2Topo =
    "(node (socket@0 (core@0 (pu@0) (pu@1)) (core@1 (pu@2) (pu@3))) "
    "(socket@1 (core@2 (pu@4) (pu@5)) (core@3 (pu@6) (pu@7))))";

std::string node_line(const std::string& id) {
  return "NODE " + id + " 8 " + kFigure2Topo + "\n";
}

std::vector<std::string> run_session(const std::string& script,
                                     MappingService& service) {
  std::istringstream in(script);
  std::ostringstream out;
  serve(in, out, service);
  std::vector<std::string> lines = split(out.str(), '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

std::shared_ptr<const CommMatrix> halo12() {
  return std::make_shared<const CommMatrix>(
      CommMatrix::from_pattern(make_named_pattern("halo:65536", 12)));
}

TEST(OptimizeService, MatchesDirectSearch) {
  MappingService service({.workers = 0});
  const Allocation alloc = figure2_allocation();
  const auto matrix = halo12();

  const OptimizeResponse response =
      service.optimize({service.intern(alloc), matrix, {}});
  ASSERT_TRUE(response.ok()) << response.error;

  const opt::OptimizeResult direct = opt::optimize_placement(
      alloc, *matrix, opt::OptBudget{}, DistanceModel::commodity());
  EXPECT_DOUBLE_EQ(response.result->cost_ns, direct.cost_ns);
  EXPECT_EQ(response.result->source, direct.source);
  ASSERT_EQ(response.result->mapping.num_procs(), direct.mapping.num_procs());
  for (std::size_t i = 0; i < direct.mapping.num_procs(); ++i) {
    EXPECT_EQ(response.result->mapping.node(i),
              direct.mapping.node(i));
    EXPECT_EQ(response.result->mapping.pus(i).to_string(),
              direct.mapping.pus(i).to_string());
  }
}

TEST(OptimizeService, RepeatRequestIsServedFromCache) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(figure2_allocation());
  const auto matrix = halo12();

  const OptimizeResponse first = service.optimize({interned, matrix, {}});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);

  const OptimizeResponse second = service.optimize({interned, matrix, {}});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  // The cached entry is the same object, not a re-run that happened to agree.
  EXPECT_EQ(second.result.get(), first.result.get());

  const Counters& c = service.counters();
  EXPECT_EQ(c.opt_requests.load(), 2u);
  EXPECT_EQ(c.opt_hits.load(), 1u);
  EXPECT_EQ(c.opt_misses.load(), 1u);
  EXPECT_EQ(service.cached_opts(), 1u);
}

TEST(OptimizeService, DigestAndBudgetPartitionTheCache) {
  MappingService service({.workers = 0});
  const InternedAlloc interned = service.intern(figure2_allocation());

  ASSERT_TRUE(service.optimize({interned, halo12(), {}}).ok());

  // Semantically identical matrix, rebuilt from scratch: same digest, hit.
  const OptimizeResponse same = service.optimize({interned, halo12(), {}});
  EXPECT_TRUE(same.cache_hit);

  // Different traffic: miss.
  const auto ring = std::make_shared<const CommMatrix>(
      CommMatrix::from_pattern(make_named_pattern("ring:65536", 12)));
  const OptimizeResponse other = service.optimize({interned, ring, {}});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.cache_hit);

  // Same matrix, different budget: the answer may differ, so it must miss.
  opt::OptBudget narrow;
  narrow.max_candidates = 2;
  const OptimizeResponse budgeted =
      service.optimize({interned, halo12(), narrow});
  ASSERT_TRUE(budgeted.ok());
  EXPECT_FALSE(budgeted.cache_hit);

  const Counters& c = service.counters();
  EXPECT_EQ(c.opt_requests.load(),
            c.opt_hits.load() + c.opt_misses.load());
}

TEST(OptimizeService, WorkerPoolDoesNotChangeTheAnswer) {
  MappingService inline_service({.workers = 0});
  MappingService pooled({.workers = 4});
  const Allocation alloc = figure2_allocation();
  const auto matrix = halo12();

  const OptimizeResponse a =
      inline_service.optimize({inline_service.intern(alloc), matrix, {}});
  OptimizeRequest threaded{pooled.intern(alloc), matrix, {}};
  threaded.threads = 4;
  const OptimizeResponse b = pooled.optimize(threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.result->cost_ns, b.result->cost_ns);
  EXPECT_EQ(a.result->source, b.result->source);
  for (std::size_t i = 0; i < a.result->mapping.num_procs(); ++i) {
    EXPECT_EQ(a.result->mapping.node(i),
              b.result->mapping.node(i));
    EXPECT_EQ(a.result->mapping.pus(i).to_string(),
              b.result->mapping.pus(i).to_string());
  }
}

TEST(OptimizeService, MissingMatrixIsAnError) {
  MappingService service({.workers = 0});
  const OptimizeResponse response =
      service.optimize({service.intern(figure2_allocation()), nullptr, {}});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(service.counters().errors.load(), 1u);
  EXPECT_EQ(service.counters().completed.load(), 1u);
}

TEST(OptimizeProtocol, PatternRoundTripAndCacheHit) {
  MappingService service({.workers = 0});
  const auto lines = run_session(node_line("a") + node_line("a") +
                                     "OPTIMIZE a 12 pattern=halo:65536\n" +
                                     "OPTIMIZE a 12 pattern=halo:65536\n",
                                 service);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_TRUE(starts_with(lines[2], "OK optimize hit=0 np=12 "));
  EXPECT_TRUE(starts_with(lines[3], "OK optimize hit=1 np=12 "));
  EXPECT_NE(lines[2].find(" source="), std::string::npos);
  EXPECT_NE(lines[2].find(" nodes="), std::string::npos);
  EXPECT_EQ(service.counters().opt_hits.load(), 1u);
}

TEST(OptimizeProtocol, AvailabilityEpochInvalidatesCachedAnswers) {
  MappingService service({.workers = 0});
  const auto lines = run_session(node_line("a") + node_line("a") +
                                     "OPTIMIZE a 12 pattern=halo:65536\n" +
                                     "OFFLINE a 1 7\n" +
                                     "OPTIMIZE a 12 pattern=halo:65536\n",
                                 service);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(starts_with(lines[2], "OK optimize hit=0"));
  EXPECT_TRUE(starts_with(lines[3], "OK offline"));
  // The allocation changed: the cached placement would bind a dead PU.
  EXPECT_TRUE(starts_with(lines[4], "OK optimize hit=0"));
  EXPECT_EQ(service.counters().opt_hits.load(), 0u);
  EXPECT_EQ(service.counters().opt_misses.load(), 2u);
}

TEST(OptimizeProtocol, MatrixPayloadFraming) {
  MappingService service({.workers = 0});
  const auto lines = run_session(node_line("a") +
                                     "OPTIMIZE a 4 matrix=3\n"
                                     "0 1 65536\n"
                                     "1 2 65536\n"
                                     "2 3 65536\n"
                                     "MAP a 2 lama:scbnh\n",
                                 service);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(starts_with(lines[1], "OK optimize hit=0 np=4 "));
  // The payload was consumed exactly: the next command still parses.
  EXPECT_TRUE(starts_with(lines[2], "OK hit="));
}

TEST(OptimizeProtocol, MalformedPayloadKeepsSessionLineSynchronized) {
  MappingService service({.workers = 0});
  // The second payload line carries a negative weight: the matrix is
  // rejected, but all three declared lines must still be consumed so the
  // following MAP executes as a command, not as matrix data.
  const auto lines = run_session(node_line("a") +
                                     "OPTIMIZE a 4 matrix=3\n"
                                     "0 1 65536\n"
                                     "1 2 -4\n"
                                     "2 3 65536\n"
                                     "MAP a 2 lama:scbnh\n",
                                 service);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(starts_with(lines[1], "ERR "));
  EXPECT_TRUE(starts_with(lines[2], "OK hit="));
}

TEST(OptimizeProtocol, RejectsMalformedRequests) {
  MappingService service({.workers = 0});
  const auto lines = run_session(
      node_line("a") +
          "OPTIMIZE a 12\n"                                  // no source
          "OPTIMIZE a 12 pattern=halo budget=0\n"            // empty budget
          "OPTIMIZE a 1 pattern=halo\n"                      // np too small
          "OPTIMIZE a 12 pattern=halo matrix=1\n"            // two sources
          "OPTIMIZE a 99999 pattern=halo\n"                  // above kMaxOptNp
          "OPTIMIZE nope 12 pattern=halo\n"                  // unknown alloc
          "OPTIMIZE a 12 pattern=halo frobnicate=1\n"        // unknown option
          "OPTIMIZE a 12 pattern=halo threads=65\n"          // above kMaxOptThreads
          "OPTIMIZE a 4 matrix=2\n"
          "row 0 0 1 2\n"                                    // non-square row
          "0 1 10\n" +
          "STATS\n",
      service);
  ASSERT_EQ(lines.size(), 11u);
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_TRUE(starts_with(lines[i], "ERR ")) << i << ": " << lines[i];
  }
  // The session survived all of it.
  EXPECT_TRUE(starts_with(lines.back(), "STATS "));
}

TEST(OptimizeProtocol, MatrixEndedEarlyIsAnError) {
  MappingService service({.workers = 0});
  const auto lines = run_session(node_line("a") +
                                     "OPTIMIZE a 4 matrix=5\n"
                                     "0 1 65536\n",
                                 service);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[1], "ERR "));
  EXPECT_NE(lines[1].find("ended early"), std::string::npos);
}

TEST(OptimizeProtocol, StatsExposeOptCounters) {
  MappingService service({.workers = 0});
  const auto lines = run_session(node_line("a") +
                                     "OPTIMIZE a 12 pattern=halo:65536\n" +
                                     "OPTIMIZE a 12 pattern=halo:65536\n" +
                                     "STATS\nMETRICS\n",
                                 service);
  const std::string& stats = lines[3];
  EXPECT_NE(stats.find("opt_requests=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("opt_hits=1"), std::string::npos);
  EXPECT_NE(stats.find("opt_misses=1"), std::string::npos);
  EXPECT_NE(stats.find("cache_opts=1"), std::string::npos);
  bool saw_metric = false;
  for (const std::string& line : lines) {
    if (line.find("lama_opt_requests_total 2") != std::string::npos) {
      saw_metric = true;
    }
  }
  EXPECT_TRUE(saw_metric);
}

}  // namespace
}  // namespace lama::svc
