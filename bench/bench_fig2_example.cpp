// F2 — Figure 2: the worked example. Regenerates the exact rank grid the
// paper draws (layout "scbnh", 24 processes, two 2-socket x 4-core x
// 2-thread nodes), verifies it against the figure, and times the end-to-end
// plan (map + bind) for the example job.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "lama/binding.hpp"
#include "lama/mapper.hpp"
#include "support/table.hpp"

namespace {

using namespace lama;

Allocation figure2_allocation() {
  return allocate_all(Cluster::homogeneous(2, "socket:2 core:4 pu:2"));
}

// Rank expected at (node, socket, core-in-socket, thread) per the figure.
int figure2_expected_rank(std::size_t n, std::size_t s, std::size_t c,
                          std::size_t h) {
  return static_cast<int>(h * 16 + n * 8 + c * 2 + s);
}

void print_figure2() {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 24});

  std::printf(
      "=== Figure 2: mapping 24 processes with process layout scbnh ===\n");
  bool ok = true;
  for (std::size_t n = 0; n < 2; ++n) {
    std::printf("Machine %zu\n", n);
    for (std::size_t s = 0; s < 2; ++s) {
      TextTable row({"Socket " + std::to_string(s), "core0", "core1", "core2",
                     "core3"});
      for (std::size_t h = 0; h < 2; ++h) {
        std::vector<std::string> cells = {"thread" + std::to_string(h)};
        for (std::size_t c = 0; c < 4; ++c) {
          const int expected = figure2_expected_rank(n, s, c, h);
          if (expected < 24) {
            cells.push_back(std::to_string(expected));
            // Verify the mapper agrees with the figure.
            const auto rank = static_cast<std::size_t>(expected);
            const std::size_t pu = s * 8 + c * 2 + h;
            if (m.node(rank) != n || m.representative_pu(rank) != pu) {
              ok = false;
            }
          } else {
            cells.push_back("-");
          }
        }
        row.add_row(cells);
      }
      std::printf("%s", row.to_string().c_str());
    }
  }
  std::printf("figure reproduction: %s\n\n", ok ? "MATCHES" : "MISMATCH");
  if (!ok) std::exit(1);
}

void BM_Figure2MapAndBind(benchmark::State& state) {
  const Allocation alloc = figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  for (auto _ : state) {
    const MappingResult m = lama_map(alloc, layout, {.np = 24});
    benchmark::DoNotOptimize(
        bind_processes(alloc, m, {.target = BindTarget::kCore}));
  }
}
BENCHMARK(BM_Figure2MapAndBind);

}  // namespace

int main(int argc, char** argv) {
  print_figure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
