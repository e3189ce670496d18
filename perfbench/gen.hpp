// The seeded request streams of the benchmark's workloads (README.md).
// Everything a run sends is generated here from the workload name and the
// seed: the allocations, the warm-up set, the untimed preparation, and a
// finite list of rounds that the timed window cycles through. The service
// under test only ever sees the generated protocol lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/wire.hpp"

namespace perfbench {

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

using lama::svc::WireVerb;

// One request frame of the stream.
struct Op {
  WireVerb verb = WireVerb::kMap;
  std::string payload;          // command line, then '\n' continuation lines
  std::string alloc;            // allocation id the command addresses
  std::size_t expect = kNone;   // MAP/MAPBATCH: index into Workload::expected
  std::size_t jobs = 0;         // MAPBATCH: jobs carried
  std::size_t failure = kNone;  // OFFLINE/REMAP/ONLINE: index into failures
  std::size_t opt = kNone;      // OPTIMIZE: index into opt_cases
  bool hit = false;             // OPTIMIZE: served from the opt cache
};

// One availability fault: a whole node (empty `pus`) or some of its PUs.
struct Failure {
  std::string alloc;
  std::size_t node = 0;
  std::vector<std::size_t> pus;
};

// One OPTIMIZE request: a named pattern with a seeded size, or a sparse
// matrix= payload of "<src> <dst> <bytes>" edge lines.
struct OptCase {
  std::string alloc;
  std::size_t np = 0;
  std::string pattern;                  // "halo:8192"; empty for a payload
  std::vector<std::string> edges;       // payload body when pattern is empty
};

struct AllocSpec {
  std::string id;
  // serialize_allocation form: one "<slots> <topology>" line per node.
  std::string serialized;
  std::vector<std::size_t> node_pus;  // PU count per node
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<AllocSpec> allocs;
  std::vector<Op> define;  // NODE lines: every allocation
  std::vector<Op> warm;    // one MAP per (allocation, layout) pair
  std::vector<Op> prep;    // untimed, after set-up (baselines, opt warm-up)
  std::vector<std::vector<Op>> rounds;  // the timed window cycles these
  std::vector<Failure> failures;
  std::vector<OptCase> opt_cases;
  // Expected MAP/MAPBATCH replies, indexed by Op::expect (oracle.hpp).
  std::vector<std::string> expected;

  [[nodiscard]] const AllocSpec& alloc(const std::string& id) const;
  // Every generated line in stream order: the determinism tests compare it.
  [[nodiscard]] std::string stream_text() const;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
