// The service's wire protocol: line-oriented over an istream/ostream pair,
// so `lamactl serve` runs on plain stdin/stdout — deterministic, pipeable,
// and testable without sockets. One response line per command:
//
//   NODE <alloc-id> <slots> <topology s-expr>   -> OK node ...
//   MAP <alloc-id> <np> <spec> [key=value ...]  -> OK hit=... pus=... | ERR ...
//   BATCH <n>       (the next n MAP lines execute concurrently;
//                    n response lines follow, in request order)
//   MAPBATCH <n> <job>...  (n jobs on one line, each
//                    "<alloc-id>/<np>/<spec>[/key=value]..."; n "JOB <i> ..."
//                    response lines in job order, then one trailer
//                    "OK mapbatch jobs=<n> ok=<k> err=<m>". One bad job
//                    answers "JOB <i> ERR ..." without failing the rest.)
//   OFFLINE <alloc-id> <node> [pu...]           -> OK offline ... epoch=...
//   ONLINE <alloc-id> <node> [pu...]            -> OK online ... epoch=...
//   REMAP <alloc-id> [timeout=ms]               -> OK remap ... | ERR ...
//   OPTIMIZE <alloc-id> <np> pattern=<name>[:<bytes>] [key=value ...]
//   OPTIMIZE <alloc-id> <np> matrix=<nlines> [key=value ...]
//                   (matrix= reads the next nlines as communication-matrix
//                    body lines — "<src> <dst> <bytes>" edges or dense
//                    "row <i> <v0> ...": the "np" header is implied by <np>.
//                    Answers "OK optimize hit=... cost=... static=..." with
//                    the optimized placement; see docs/optimize.md.)
//   STATS [json]    -> STATS <key=value counters> | STATS <one-line JSON>
//   METRICS [json]  -> Prometheus text format, terminated by a "# EOF"
//                      line | METRICS <one-line JSON> (same snapshot)
//   TRACE <id>|last|errors  -> TRACE id=<id> <Chrome trace-event JSON,
//                      one line> | ERR (tracing off, or not retained)
//   HEALTH          -> OK health status=ready|draining ... (liveness,
//                      readiness, recovery status, journal lag; grammar in
//                      docs/resilience.md. Always served, even draining.)
//   WATCH [interval_ms] [stats|metrics|events]  -> socket connections only
//                      (svc/event_loop.hpp): OK watch interval_ms=<n>
//                      mode=<m>, then server-pushed snapshots every interval
//                      (STATS line / Prometheus text framed by "# EOF") and
//                      immediate "EVENT failure ..."/"EVENT slo_breach ..."
//                      lines; "WATCH stop" unsubscribes. On stdin: ERR.
//   QUIT            -> OK bye (serving stops; EOF works too)
//
// MAP options: oversub=0|1, pus=<per-proc PUs>, npernode=<cap>,
// bind=<target>, timeout=<ms>; any other key (threads= included) answers
// "ERR parse error: unknown MAP option '<key>'". MAPBATCH jobs take the
// same options, '/'-separated since a job must stay one token. Blank lines
// and '#' comments are ignored.
// All numeric fields are parsed with overflow rejection and protocol bounds
// (kMaxNp and friends) — malformed or absurd input answers ERR and the
// session continues; nothing a client sends can wrap an integer or
// allocate unboundedly. Full reference: docs/service.md, docs/resilience.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "svc/service.hpp"

namespace lama::dur {
class StateStore;
}  // namespace lama::dur

namespace lama::svc {

// Protocol bounds on untrusted numeric input. Generous for any real job,
// small enough that a hostile value cannot drive memory growth or a
// near-endless mapping walk.
inline constexpr std::size_t kMaxNp = 1u << 20;         // processes per MAP
inline constexpr std::size_t kMaxSlots = 1u << 20;      // slots per NODE
inline constexpr std::size_t kMaxPusPerProc = 1u << 12;
inline constexpr std::size_t kMaxBatch = 4096;          // jobs per (MAP)BATCH
inline constexpr std::size_t kMaxTimeoutMs = 3'600'000; // one hour
inline constexpr std::size_t kMaxNodesPerAlloc = 1u << 16;
// OPTIMIZE runs an O(np^2) evaluation per candidate and O(np^3) refinement
// passes, so its np is bounded far below kMaxNp — a hostile count must not
// buy minutes of CPU with one line. The matrix payload and search knobs are
// bounded for the same reason.
inline constexpr std::size_t kMaxOptNp = 256;           // processes
inline constexpr std::size_t kMaxOptMatrixLines = 8192; // payload lines
inline constexpr std::size_t kMaxOptCandidates = 64;    // budget=
inline constexpr std::size_t kMaxOptPasses = 16;        // passes=
inline constexpr std::size_t kMaxOptThreads = 64;       // threads=

// One live protocol session: named allocations under construction, their
// availability epochs, and the last lama mapping per allocation (what REMAP
// re-places). serve() is a loop over execute(); the fault-injection harness
// drives execute() directly so it can interleave availability faults,
// malformed lines, and cache corruption between requests.
class ProtocolSession {
 public:
  explicit ProtocolSession(MappingService& service);
  ~ProtocolSession();

  ProtocolSession(const ProtocolSession&) = delete;
  ProtocolSession& operator=(const ProtocolSession&) = delete;

  // Executes one command line and returns the full response text (newline-
  // terminated; `n + 1` lines for a BATCH). BATCH reads its MAP lines from
  // `more`. Blank and comment lines return "". Errors never throw — they
  // answer "ERR ...\n" and leave the session usable.
  std::string execute(const std::string& line, std::istream& more);

  // What recovery found and whether it checked out (HEALTH reports this).
  struct RecoveryInfo {
    bool attempted = false;      // restore_from() ran
    bool recovered = false;      // any state came back from disk
    bool self_check_ok = true;   // rebuilt digest matched the last seal
    bool torn_tail = false;      // the journal lost an unsealed tail
    std::size_t snapshot_lines = 0;
    std::size_t journal_records = 0;
    std::size_t replay_errors = 0;  // restored lines that failed to apply
    std::size_t prewarmed = 0;      // cache pre-warm mappings that succeeded
    std::vector<std::string> warnings;
  };

  // Durability: restores state from `store` (newest snapshot, then journal
  // replay, tolerating a torn tail), verifies the rebuilt state digest
  // against the last sealed record, optionally pre-warms the caches for
  // restored allocations, and records every subsequent mutation into the
  // store. Never throws and never refuses — recovery trouble lands in the
  // returned info (and in HEALTH), the session always starts. Call once,
  // before serving traffic.
  RecoveryInfo restore_from(dur::StateStore& store);

  // Stable fingerprint of the full control-plane state: allocation ids,
  // topologies with availability flags, epochs, and remap baselines. Every
  // journal record seals the writer's post-mutation digest; recovery
  // recomputes this and compares.
  [[nodiscard]] std::uint64_t state_digest() const;

  // The session state as restorable lines (what write_snapshot stores):
  // NODE lines whose serialized topologies carry the availability flags,
  // then #EPOCH and #LAST directives pinning what NODE replay cannot.
  [[nodiscard]] std::vector<std::string> snapshot_lines() const;

  // True once QUIT was executed.
  [[nodiscard]] bool done() const { return done_; }
  // MAP/REMAP requests answered so far (both OK and ERR, excluding requests
  // whose line failed to parse).
  [[nodiscard]] std::size_t served() const { return served_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool done_ = false;
  std::size_t served_ = 0;
};

// Runs the protocol until QUIT or EOF; returns the number of MAP requests
// served. Malformed commands produce an ERR line and serving continues.
// When `stats_at_eof` is set, a final STATS line is emitted after the loop.
std::size_t serve(std::istream& in, std::ostream& out,
                  MappingService& service, bool stats_at_eof = false);

// serve() over a caller-owned session (so durability can be attached and
// restored before the loop, and the final snapshot written after it) with a
// stop predicate polled before every read — the signal-driven drain exits
// here. A signal interrupting the blocking read also ends the loop: the
// reader fails on EINTR, getline returns false, and control comes back.
std::size_t serve(std::istream& in, std::ostream& out,
                  ProtocolSession& session, MappingService& service,
                  bool stats_at_eof = false,
                  const std::function<bool()>& stop = nullptr);

// The client side of one query: NODE lines defining `alloc` under
// `alloc_id`, then a MAP line. `options` is the raw "key=value ..." tail
// (may be empty). This is what `lamactl query` prints.
std::string format_query(const Allocation& alloc, const std::string& alloc_id,
                         std::size_t np, const std::string& spec,
                         const std::string& options = "");

// The response line for one MAP: "OK hit=0 coalesced=0 np=8 sweeps=1
// nodes=0,0,1,1 pus=0,2,0,2 [widths=...]", "ERR busy retry-after=<ms>" for
// a shed request, or "ERR <message>".
std::string format_map_response(const MapResponse& response);

}  // namespace lama::svc
