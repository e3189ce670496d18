// End-to-end durability through the protocol layer (ctest label "dur"):
// mutate a session backed by a StateStore, restart into a fresh session over
// the same directory, and require the restored state digest to be byte-for-
// byte identical — via pure journal replay, via snapshot + journal, and
// across a torn tail. Also covers the HEALTH grammar, the drain shed, cache
// pre-warm, and the reads-are-never-journaled guarantee.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dur/state_store.hpp"
#include "dur/temp_dir.hpp"
#include "support/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

Allocation small_alloc(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:2 pu:2"));
}

struct SessionDriver {
  explicit SessionDriver(MappingService& service) : session(service) {}
  std::string operator()(const std::string& line) {
    std::string response = session.execute(line, no_more);
    if (!response.empty() && response.back() == '\n') response.pop_back();
    return response;
  }
  ProtocolSession session;
  std::istringstream no_more;
};

void define_alloc(SessionDriver& drive, const Allocation& alloc,
                  const std::string& id) {
  std::istringstream lines(format_query(alloc, id, 1, "lama"));
  std::string line;
  while (std::getline(lines, line)) {
    if (!starts_with(line, "NODE ")) continue;
    ASSERT_TRUE(starts_with(drive(line), "OK node")) << line;
  }
}

// One durable session over `dir`: attach, restore, run `lines`, return the
// post-mutation digest. `snapshot_on_exit` mimics the serve() shutdown path.
std::uint64_t run_durable(const std::string& dir,
                          const std::vector<std::string>& lines,
                          bool snapshot_on_exit,
                          ProtocolSession::RecoveryInfo* info_out = nullptr,
                          std::size_t snapshot_every = 64) {
  MappingService service({.workers = 0});
  dur::StateStore store(
      {.dir = dir, .snapshot_every = snapshot_every});
  service.attach_durability(&store);
  SessionDriver drive(service);
  const ProtocolSession::RecoveryInfo info =
      drive.session.restore_from(store);
  if (info_out != nullptr) *info_out = info;
  for (const std::string& line : lines) {
    const std::string response = drive(line);
    EXPECT_FALSE(starts_with(response, "ERR")) << line << " -> " << response;
  }
  const std::uint64_t digest = drive.session.state_digest();
  store.flush();
  if (snapshot_on_exit) {
    EXPECT_TRUE(
        store.write_snapshot(drive.session.snapshot_lines(), digest));
  }
  return digest;
}

std::vector<std::string> mutation_script(const Allocation& alloc) {
  std::vector<std::string> lines;
  std::istringstream defs(format_query(alloc, "a", 1, "lama"));
  std::string line;
  while (std::getline(defs, line)) {
    if (starts_with(line, "NODE ")) lines.push_back(line);
  }
  lines.push_back("MAP a 4 lama:nsch");
  lines.push_back("OFFLINE a 1");
  lines.push_back("REMAP a");
  lines.push_back("OFFLINE a 0 0 1");
  lines.push_back("ONLINE a 0 0");
  return lines;
}

TEST(DurabilityService, JournalReplayRestoresIdenticalDigest) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  // No shutdown snapshot: the restart rebuilds purely from the journal, the
  // kill -9 path.
  const std::uint64_t before =
      run_durable(dir.path(), mutation_script(small_alloc()), false);

  ProtocolSession::RecoveryInfo info;
  const std::uint64_t after = run_durable(dir.path(), {}, false, &info);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(info.attempted);
  EXPECT_TRUE(info.recovered);
  EXPECT_TRUE(info.self_check_ok);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.replay_errors, 0u);
  EXPECT_GE(info.journal_records, 6u);  // 2 NODE + MAP + 3 availability
}

TEST(DurabilityService, SnapshotPlusJournalRestoresIdenticalDigest) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::uint64_t before =
      run_durable(dir.path(), mutation_script(small_alloc()), true);

  ProtocolSession::RecoveryInfo info;
  const std::uint64_t after = run_durable(dir.path(), {}, false, &info);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(info.self_check_ok);
  EXPECT_GT(info.snapshot_lines, 0u);
  EXPECT_EQ(info.journal_records, 0u);  // everything compacted at shutdown
}

TEST(DurabilityService, TornTailRecoversToLastSealedRecord) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  run_durable(dir.path(), mutation_script(small_alloc()), false);

  // Cut the journal mid-record: the restart must come up on the surviving
  // sealed prefix, self-check clean against *that* prefix's digest.
  const std::string wal = dir.path() + "/journal-0000000000.wal";
  std::ifstream in(wal, std::ios::binary | std::ios::ate);
  const std::size_t size = static_cast<std::size_t>(in.tellg());
  in.close();
  ASSERT_EQ(::truncate(wal.c_str(), static_cast<off_t>(size - 3)), 0);

  ProtocolSession::RecoveryInfo info;
  run_durable(dir.path(), {}, false, &info);
  EXPECT_TRUE(info.recovered);
  EXPECT_TRUE(info.torn_tail);
  EXPECT_TRUE(info.self_check_ok) << "digest must match the sealed prefix";
  EXPECT_EQ(info.replay_errors, 0u);
}

TEST(DurabilityService, RestoredSessionKeepsServingCorrectly) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  run_durable(dir.path(), mutation_script(small_alloc()), false);

  // The restored availability state is live, not just fingerprint-equal:
  // node 1 is still offline, so a 4-way MAP packs onto node 0.
  MappingService service({.workers = 0});
  dur::StateStore store({.dir = dir.path()});
  service.attach_durability(&store);
  SessionDriver drive(service);
  drive.session.restore_from(store);
  const std::string mapped = drive("MAP a 4 lama");
  ASSERT_TRUE(starts_with(mapped, "OK")) << mapped;
  EXPECT_NE(mapped.find("nodes=0,0,0,0"), std::string::npos) << mapped;

  // And the restored baseline REMAPs without a fresh MAP.
  EXPECT_TRUE(starts_with(drive("REMAP a"), "OK remap"));
}

TEST(DurabilityService, PrewarmMakesTheFirstMapAHit) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  // Snapshot restore is where prewarm earns its keep: the baseline comes
  // back from #LAST alone, with no replayed MAP line to warm the caches.
  run_durable(dir.path(), mutation_script(small_alloc()), true);

  // Prewarm off restores cold: #LAST alone rebuilds the baseline, no
  // mapping runs, no tree is cached. (Checked first — any MAP driven below
  // journals a record the next restore would replay, warming it.)
  MappingService cold_service({.workers = 0});
  dur::StateStore cold_store(
      {.dir = dir.path(), .prewarm = false});
  cold_service.attach_durability(&cold_store);
  SessionDriver cold(cold_service);
  const ProtocolSession::RecoveryInfo cold_info =
      cold.session.restore_from(cold_store);
  EXPECT_EQ(cold_info.prewarmed, 0u);
  EXPECT_EQ(cold_service.cached_trees(), 0u);

  MappingService service({.workers = 0});
  dur::StateStore store({.dir = dir.path()});  // prewarm defaults on
  service.attach_durability(&store);
  SessionDriver drive(service);
  const ProtocolSession::RecoveryInfo info = drive.session.restore_from(store);
  EXPECT_EQ(info.prewarmed, 1u);
  EXPECT_GE(service.cached_trees(), 1u);

  // The same mapping the baseline holds: warm from request one.
  const std::string warm = drive("MAP a 2 lama:nsch");
  ASSERT_TRUE(starts_with(warm, "OK")) << warm;
  EXPECT_TRUE(starts_with(warm, "OK hit=1")) << warm;
}

TEST(DurabilityService, ReadsAreNeverJournaled) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  MappingService service({.workers = 0});
  dur::StateStore store({.dir = dir.path()});
  service.attach_durability(&store);
  SessionDriver drive(service);
  drive.session.restore_from(store);
  define_alloc(drive, small_alloc(), "a");
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  const std::uint64_t after_first_map = store.stats().journal.appended;

  // Warm repeats of the same MAP, plus every pure read, add no records —
  // the warm path stays within noise of a journal-less service.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));
  }
  EXPECT_TRUE(starts_with(drive("STATS"), "STATS"));
  EXPECT_TRUE(starts_with(drive("HEALTH"), "OK health"));
  EXPECT_EQ(store.stats().journal.appended, after_first_map);

  // A *different* MAP moves the remap baseline, so it journals once.
  ASSERT_TRUE(starts_with(drive("MAP a 8 lama"), "OK"));
  EXPECT_EQ(store.stats().journal.appended, after_first_map + 1);
}

TEST(DurabilityService, HealthGrammarCoversRecoveryAndJournal) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  MappingService service({.workers = 0});
  dur::StateStore store({.dir = dir.path()});
  service.attach_durability(&store);
  SessionDriver drive(service);
  drive.session.restore_from(store);
  define_alloc(drive, small_alloc(), "a");

  const std::string health = drive("HEALTH");
  EXPECT_TRUE(starts_with(health, "OK health status=ready ")) << health;
  for (const char* key :
       {"uptime_s=", "persist=1", "allocs=1", "state_digest=", "recovered=0",
        "recovery_ok=1", "recovered_records=0", "torn_tail=0", "prewarmed=0",
        "journal_records=", "journal_lag=0", "journal_errors=0",
        "snapshot_seq=0", "snapshots=0"}) {
    EXPECT_NE(health.find(key), std::string::npos)
        << "missing " << key << " in: " << health;
  }

  // Without a store, HEALTH still answers (persist=0, zeros for journal).
  MappingService bare({.workers = 0});
  SessionDriver bare_drive(bare);
  const std::string bare_health = bare_drive("HEALTH");
  EXPECT_TRUE(starts_with(bare_health, "OK health status=ready "))
      << bare_health;
  EXPECT_NE(bare_health.find("persist=0"), std::string::npos) << bare_health;
}

TEST(DurabilityService, DrainShedsMutationsButServesHealthAndStats) {
  ServiceConfig config{.workers = 0};
  config.retry_after_ms = 9;
  MappingService service(config);
  SessionDriver drive(service);
  define_alloc(drive, small_alloc(), "a");
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));

  service.begin_drain();
  EXPECT_TRUE(service.draining());
  // Shed replies use the exact busy grammar the retrying client parses.
  EXPECT_EQ(drive("MAP a 4 lama"), "ERR busy retry-after=9");
  EXPECT_EQ(drive("OFFLINE a 1"), "ERR busy retry-after=9");
  EXPECT_EQ(drive("REMAP a"), "ERR busy retry-after=9");
  EXPECT_EQ(drive("NODE b 2 (pu)"), "ERR busy retry-after=9");

  // Observability stays up for whoever is watching the drain finish.
  const std::string health = drive("HEALTH");
  EXPECT_TRUE(starts_with(health, "OK health status=draining ")) << health;
  EXPECT_TRUE(starts_with(drive("STATS"), "STATS"));
  EXPECT_TRUE(starts_with(drive("QUIT"), "OK bye"));
}

TEST(DurabilityService, PeriodicSnapshotsRotateDuringService) {
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  MappingService service({.workers = 0});
  dur::StateStore store({.dir = dir.path(), .snapshot_every = 4});
  service.attach_durability(&store);
  SessionDriver drive(service);
  drive.session.restore_from(store);
  define_alloc(drive, small_alloc(), "a");  // 2 mutations
  ASSERT_TRUE(starts_with(drive("MAP a 4 lama"), "OK"));  // 3
  ASSERT_TRUE(starts_with(drive("OFFLINE a 1"), "OK"));   // 4: rotation due
  ASSERT_TRUE(starts_with(drive("REMAP a"), "OK"));
  EXPECT_GE(store.snapshot_seq(), 1u);
  EXPECT_GE(store.stats().snapshots, 1u);

  // The rotated state restores to the live digest.
  const std::uint64_t live = drive.session.state_digest();
  ProtocolSession::RecoveryInfo info;
  MappingService fresh({.workers = 0});
  dur::StateStore fresh_store({.dir = dir.path()});
  fresh.attach_durability(&fresh_store);
  ProtocolSession restored(fresh);
  info = restored.restore_from(fresh_store);
  EXPECT_TRUE(info.self_check_ok);
  EXPECT_EQ(restored.state_digest(), live);
}

// A result's rank is its index, so a #LAST line must list exactly np
// placements with ranks 0..np-1 in order — the form snapshot_lines writes.
// A short list, a duplicate rank and an out-of-order rank are each a replay
// error: noted in the recovery warnings while startup goes on.
TEST(DurabilityService, LastLineMustCarryRanksZeroToNpInOrder) {
  MappingService live_service({.workers = 0});
  SessionDriver live(live_service);
  define_alloc(live, small_alloc(), "a");
  ASSERT_TRUE(starts_with(live("MAP a 4 lama:nsch"), "OK"));
  const std::vector<std::string> written = live.session.snapshot_lines();
  const auto last_it =
      std::find_if(written.begin(), written.end(), [](const std::string& l) {
        return starts_with(l, "#LAST ");
      });
  ASSERT_NE(last_it, written.end());
  const std::string key = " placements=";
  const std::string head = last_it->substr(0, last_it->find(key) + key.size());
  const std::vector<std::string> f =
      split(last_it->substr(head.size()), ';');
  ASSERT_EQ(f.size(), 4u) << *last_it;

  struct Case {
    std::string name;
    std::string placements;
    std::size_t replay_errors;
  };
  const std::vector<Case> cases = {
      {"as written", join(f, ";"), 0},
      {"short list", join({f[0], f[1], f[2]}, ";"), 1},
      {"duplicate rank", join({f[0], f[1], f[1], f[3]}, ";"), 1},
      {"out-of-order rank", join({f[0], f[2], f[1], f[3]}, ";"), 1},
  };
  for (const Case& c : cases) {
    dur::TempDir dir;
    ASSERT_TRUE(dir.ok());
    std::vector<std::string> lines = written;
    lines[static_cast<std::size_t>(last_it - written.begin())] =
        head + c.placements;
    {
      dur::StateStore writer({.dir = dir.path()});
      ASSERT_TRUE(writer.write_snapshot(lines, live.session.state_digest()));
    }
    MappingService service({.workers = 0});
    dur::StateStore store({.dir = dir.path()});
    service.attach_durability(&store);
    SessionDriver drive(service);
    const ProtocolSession::RecoveryInfo info =
        drive.session.restore_from(store);
    EXPECT_EQ(info.replay_errors, c.replay_errors) << c.name;
    const bool noted =
        std::any_of(info.warnings.begin(), info.warnings.end(),
                    [](const std::string& w) {
                      return starts_with(w, "cannot replay '#LAST ");
                    });
    EXPECT_EQ(noted, c.replay_errors > 0) << c.name;
    // Startup went on: the allocation is back and maps.
    EXPECT_TRUE(starts_with(drive("MAP a 4 lama:nsch"), "OK")) << c.name;
    if (c.replay_errors == 0) {
      EXPECT_TRUE(info.self_check_ok) << c.name;
      EXPECT_EQ(drive.session.state_digest(), live.session.state_digest());
    }
  }
}

}  // namespace
}  // namespace lama::svc
