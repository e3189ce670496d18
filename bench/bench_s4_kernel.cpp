// S4 — the compiled mapping kernel against the reference walk. Both modes
// run warm (the maximal tree is prebuilt and shared, plans precompiled, the
// executor's arenas sized), so the measured difference is exactly what plan
// compilation buys on the service's steady state: no recursive descent, no
// pruned-tree lookups, no cap-key hashing, no per-run allocation.
//
// For each case (the paper's Figure 2 machine under scbnh, a 64-node
// scale-out of it, and a deep multi-level topology) the program times
//   reference  - lama_map over the shared tree
//   compiled   - lama_map_compiled through one reused PlanExecutor
// taking the minimum wall time over repeats, verifies that the compiled
// run is byte-identical to the reference mapping, and writes
// BENCH_s4_kernel.json (argv[1], default ./BENCH_s4_kernel.json). The
// acceptance bar is min_speedup >= argv[2] (default 3.0): the compiled
// kernel beats the warm reference walk at least threefold on every case.
//
// The two modes' repeats are interleaved (reference, compiled, reference,
// …) so drift inside one process lands on both sides. Only `speedup`
// compares across runs: on a shared host whole processes land in a fast
// mode or a ~1.5x slower one that moves reference_ns and compiled_ns
// together. The kernel's `sweep` spans run here outside any service, so
// these figures also show that span recording costs nothing there.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"

namespace {

using namespace lama;

constexpr std::size_t kRepeats = 9;
constexpr std::size_t kItersPerRepeat = 32;

std::uint64_t elapsed_ns(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}


bool identical(const MappingResult& a, const MappingResult& b) {
  if (a.layout != b.layout || a.sweeps != b.sweeps || a.visited != b.visited ||
      a.skipped != b.skipped || a.pu_oversubscribed != b.pu_oversubscribed ||
      a.slot_oversubscribed != b.slot_oversubscribed ||
      a.procs_per_node != b.procs_per_node ||
      a.num_procs() != b.num_procs()) {
    return false;
  }
  for (std::size_t r = 0; r < a.num_procs(); ++r) {
    if (a.node(r) != b.node(r) || !a.pus(r).equals(b.pus(r)) ||
        !std::ranges::equal(a.coord(r), b.coord(r))) {
      return false;
    }
  }
  return true;
}

struct CaseResult {
  const char* name;
  std::size_t np;
  std::uint64_t space;
  std::uint64_t reference_ns;
  std::uint64_t compiled_ns;
  double speedup;
};

CaseResult run_case(const char* name, const Allocation& alloc,
                    const std::string& layout_str, std::size_t np) {
  const ProcessLayout layout = ProcessLayout::parse(layout_str);
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  const MapOptions opts{.np = np};

  const MappingResult want = lama_map(alloc, layout, opts, mtree);
  PlanExecutor exec;
  MappingResult got;
  lama_map_compiled(alloc, opts, plan, exec, got);  // warm-up + identity
  if (!identical(want, got)) {
    std::fprintf(stderr, "s4_kernel: %s compiled output diverges\n", name);
    std::exit(2);
  }

  std::uint64_t reference_ns = ~0ull;
  std::uint64_t compiled_ns = ~0ull;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    reference_ns = std::min(reference_ns, elapsed_ns([&] {
      for (std::size_t i = 0; i < kItersPerRepeat; ++i) {
        (void)lama_map(alloc, layout, opts, mtree);
      }
    }));
    compiled_ns = std::min(compiled_ns, elapsed_ns([&] {
      for (std::size_t i = 0; i < kItersPerRepeat; ++i) {
        lama_map_compiled(alloc, opts, plan, exec, got);
      }
    }));
  }

  return {name,
          np,
          plan.space,
          reference_ns,
          compiled_ns,
          static_cast<double>(reference_ns) / static_cast<double>(compiled_ns)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_s4_kernel.json");
  const double min_speedup = argc > 2 ? std::atof(argv[2]) : 3.0;

  std::vector<CaseResult> results;
  // The paper's worked example: two Figure 2 nodes, fully subscribed.
  results.push_back(run_case(
      "fig2_scbnh",
      allocate_all(Cluster::homogeneous(2, "socket:2 core:4 pu:2")), "scbnh",
      32));
  // Scale-out: the same node type at cluster width.
  results.push_back(run_case(
      "scaleout_64n",
      allocate_all(Cluster::homogeneous(64, "socket:2 core:4 pu:2")), "nschb",
      1024));
  // Deep topology: cache and NUMA levels multiply the iteration space.
  results.push_back(run_case(
      "multilevel_8n",
      allocate_all(Cluster::homogeneous(8, "socket:2 numa:2 l2:2 core:2 pu:2")),
      "scbnh", 256));

  double worst = 1e300;
  for (const CaseResult& r : results) worst = std::min(worst, r.speedup);
  const bool pass = worst >= min_speedup;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"s4_kernel\",\n"
               "  \"repeats\": %zu,\n"
               "  \"iters_per_repeat\": %zu,\n"
               "  \"min_speedup_required\": %.2f,\n"
               "  \"cases\": [\n",
               kRepeats, kItersPerRepeat, min_speedup);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"np\": %zu, \"space\": %llu, "
                 "\"reference_ns\": %llu, \"compiled_ns\": %llu, "
                 "\"speedup\": %.3f}%s\n",
                 r.name, r.np, static_cast<unsigned long long>(r.space),
                 static_cast<unsigned long long>(r.reference_ns),
                 static_cast<unsigned long long>(r.compiled_ns), r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"min_speedup\": %.3f,\n"
               "  \"pass\": %s\n"
               "}\n",
               worst, pass ? "true" : "false");
  std::fclose(out);

  for (const CaseResult& r : results) {
    std::printf(
        "s4_kernel: %-14s np=%-5zu reference=%8.3f ms  compiled=%8.3f ms  "
        "speedup=%.2fx\n",
        r.name, r.np, r.reference_ns / 1e6, r.compiled_ns / 1e6, r.speedup);
  }
  std::printf("s4_kernel: min_speedup=%.2fx (required %.2fx)  %s\n", worst,
              min_speedup, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
