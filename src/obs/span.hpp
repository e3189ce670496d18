// Trace spans: the unit of request observability. A span is one timed stage
// of one request — parse, cache lookup, tree build, a placement sweep,
// the binding step, … — stamped with the request's trace id and the ring
// index of the recording thread. Spans are plain values small enough to
// publish through the lock-free per-thread rings (ring.hpp); assembly into
// complete traces happens only for sampled or failed requests (tracer.hpp).
#pragma once

#include <cstdint>

namespace lama::obs {

// The pipeline stages of the mapping service, following the paper's walk
// (prune -> availability skip -> place -> bind) plus the service framing
// around it. Stage values appear on the wire (TRACE responses) through
// stage_name(), never as raw numbers.
enum class Stage : std::uint8_t {
  kRequest = 0,    // the whole request, admission to reply
  kParse,          // protocol line -> MapRequest
  kLookup,         // tree-cache shard probe (a miss's build/wait follow)
  kBuild,          // maximal-tree construction
  kCoalesceWait,   // waited on another request's in-flight build
  kMap,            // the mapping walk (reference or compiled)
  kSweep,          // one wraparound sweep of the placement walk
  kBind,           // the binding step (per-rank cpusets)
  kReply,          // response formatting
  kBatch,          // a MAPBATCH/BATCH request as a whole
  kPlanCompile,    // compiling a MapPlan from the cached tree
  kPlanExec,       // executing a compiled plan (inside the map_walk span)
  kOptimize,       // a whole OPTIMIZE placement search (cache miss)
  kOptCandidate,   // pricing one seed candidate (detail = candidate index)
  kOptRefine,      // pairwise-exchange refinement of the winning seed
  // Event-loop server stages (svc/event_loop.hpp). detail carries the
  // connection id so one trace's spans can be pinned to one socket.
  kAccept,         // accepting one connection
  kNetRead,        // draining one readable socket into its buffer
  kFrame,          // delimiting one request (text line or binary frame)
  kDispatch,       // one framed request through the protocol session
  kNetWrite,       // flushing one connection's write buffer
};

// Number of Stage values (kRequest .. kNetWrite, dense from 0). Keep in
// sync when appending stages: per-stage telemetry arrays size off this.
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kNetWrite) + 1;

constexpr const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kRequest: return "request";
    case Stage::kParse: return "parse";
    case Stage::kLookup: return "cache_lookup";
    case Stage::kBuild: return "tree_build";
    case Stage::kCoalesceWait: return "coalesce_wait";
    case Stage::kMap: return "map_walk";
    case Stage::kSweep: return "sweep";
    case Stage::kBind: return "bind";
    case Stage::kReply: return "reply";
    case Stage::kBatch: return "batch";
    case Stage::kPlanCompile: return "plan_compile";
    case Stage::kPlanExec: return "plan_exec";
    case Stage::kOptimize: return "optimize";
    case Stage::kOptCandidate: return "opt_candidate";
    case Stage::kOptRefine: return "opt_refine";
    case Stage::kAccept: return "accept";
    case Stage::kNetRead: return "read";
    case Stage::kFrame: return "frame";
    case Stage::kDispatch: return "dispatch";
    case Stage::kNetWrite: return "write";
  }
  return "unknown";
}

// How a traced request ended. Anything but kOk marks the trace as a failure
// for the flight recorder: it is retained and dumped regardless of sampling.
enum class Outcome : std::uint8_t {
  kOk = 0,
  kError,      // failed (parse, mapping, unexpected exception)
  kShed,       // rejected by admission control (ERR busy)
  kDeadlined,  // cancelled past its deadline
  kDegraded,   // succeeded on the uncached fallback (integrity failure,
               // degraded-shared remap)
  kSlow,       // succeeded, but the tail gate flagged it: slower than the
               // decayed p99 estimate, captured regardless of head sampling
};

constexpr const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kShed: return "shed";
    case Outcome::kDeadlined: return "deadlined";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kSlow: return "slow";
  }
  return "unknown";
}

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;     // recording thread's ring index
  std::uint32_t detail = 0;  // sweep number / candidate index / job slot
  Stage stage = Stage::kRequest;
};

}  // namespace lama::obs
