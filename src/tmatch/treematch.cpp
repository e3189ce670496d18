#include "tmatch/treematch.hpp"

#include <algorithm>
#include <memory>

#include "lama/rmaps.hpp"
#include "support/error.hpp"

namespace lama {

namespace {

struct TreeMatchRun {
  const CommGraph& graph;
  std::vector<double> row_sum;   // per process: CommMatrix::row_sum
  std::vector<double> affinity;  // partition() scratch, per process
  MappingResult result;

  explicit TreeMatchRun(const CommGraph& g) : graph(g) {
    row_sum.assign(static_cast<std::size_t>(graph.np()), 0.0);
    affinity.assign(row_sum.size(), 0.0);
    for (int p = 0; p < graph.np(); ++p) {
      for (const CommGraph::Edge& e : graph.row(p)) {
        row_sum[static_cast<std::size_t>(p)] += e.bytes;
      }
    }
  }

  // Greedy affinity partition of `procs` into parts of the given sizes
  // (sizes sum to procs.size()). Part i is seeded with the unassigned
  // process of largest total communication and grown by maximum affinity to
  // the part. A process's affinity to the part under construction is kept
  // as a running sum: when a member joins, its graph row adds the member's
  // volume to each partner. Each sum gains the same terms in the same order
  // as a scan over the part's members would (a zero term leaves a sum
  // unchanged), so scores and tie-breaks are those of that scan, at
  // O(n^2 + m) per call.
  std::vector<std::vector<int>> partition(
      const std::vector<int>& procs, const std::vector<std::size_t>& sizes) {
    std::vector<std::vector<int>> parts(sizes.size());
    std::vector<int> remaining = procs;

    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<int>& part = parts[i];
      for (const int p : remaining) affinity[static_cast<std::size_t>(p)] = 0.0;
      while (part.size() < sizes[i]) {
        LAMA_ASSERT(!remaining.empty());
        std::size_t best = 0;
        double best_score = -1.0;
        for (std::size_t j = 0; j < remaining.size(); ++j) {
          // Affinity to the part under construction; for the seed, total
          // communication volume (gather the hubs first).
          const std::size_t p = static_cast<std::size_t>(remaining[j]);
          const double score = part.empty() ? row_sum[p] : affinity[p];
          if (score > best_score) {
            best_score = score;
            best = j;
          }
        }
        const int joined = remaining[best];
        part.push_back(joined);
        remaining.erase(remaining.begin() +
                        static_cast<std::ptrdiff_t>(best));
        for (const CommGraph::Edge& e : graph.row(joined)) {
          affinity[static_cast<std::size_t>(e.peer)] += e.bytes;
        }
      }
    }
    LAMA_ASSERT(remaining.empty());
    return parts;
  }

  // Recursively partitions `procs` below `obj` on node `node`. Leaves assign.
  void descend(std::size_t node, const TopoObject& obj,
               const std::vector<int>& procs, const Bitmap& online) {
    if (procs.empty()) return;
    if (obj.is_leaf()) {
      // One PU: capacity bookkeeping above guarantees exactly one process.
      for (int proc : procs) {
        result.set_node(static_cast<std::size_t>(proc), node);
        result.set_pus(static_cast<std::size_t>(proc), obj.cpuset());
        ++result.procs_per_node[node];
      }
      return;
    }

    // Children capacities = their online PU counts; fill in child order so
    // grouped processes stay under the earliest (deepest-shared) ancestors.
    std::vector<const TopoObject*> children;
    std::vector<std::size_t> capacities;
    std::size_t total = 0;
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      const TopoObject& child = obj.child(i);
      const std::size_t cap = (child.cpuset() & online).count();
      if (cap == 0) continue;  // off-lined subtree
      children.push_back(&child);
      capacities.push_back(cap);
      total += cap;
    }
    LAMA_ASSERT(total >= procs.size());

    // Sizes: pack child by child up to capacity.
    std::vector<std::size_t> sizes(children.size(), 0);
    std::size_t left = procs.size();
    for (std::size_t i = 0; i < children.size() && left > 0; ++i) {
      sizes[i] = std::min(left, capacities[i]);
      left -= sizes[i];
    }

    const std::vector<std::vector<int>> parts = partition(procs, sizes);
    for (std::size_t i = 0; i < children.size(); ++i) {
      descend(node, *children[i], parts[i], online);
    }
  }
};

}  // namespace

MappingResult map_treematch(const Allocation& alloc, const CommMatrix& matrix,
                            const MapOptions& opts) {
  return map_treematch(alloc, CommGraph(matrix), opts);
}

MappingResult map_treematch(const Allocation& alloc, const CommGraph& graph,
                            const MapOptions& opts) {
  alloc.validate();
  const std::size_t np =
      opts.np == 0 ? static_cast<std::size_t>(graph.np()) : opts.np;
  if (np != static_cast<std::size_t>(graph.np())) {
    throw MappingError("treematch: np " + std::to_string(np) +
                       " does not match the " + std::to_string(graph.np()) +
                       "-process communication matrix");
  }
  if (opts.pus_per_proc != 1) {
    throw MappingError("treematch maps one processing unit per process");
  }
  if (np > alloc.total_online_pus()) {
    throw OversubscribeError(
        "treematch does not oversubscribe: " + std::to_string(np) +
        " processes exceed " + std::to_string(alloc.total_online_pus()) +
        " online processing units");
  }

  TreeMatchRun run(graph);
  run.result.layout = "treematch";
  run.result.procs_per_node.assign(alloc.num_nodes(), 0);
  run.result.sweeps = 1;
  run.result.reset_ranks(np, 1, 0);  // leaves write each process's own rank

  // Top level: partition across nodes by online capacity.
  std::vector<int> procs(np);
  for (std::size_t i = 0; i < np; ++i) procs[i] = static_cast<int>(i);

  std::vector<std::size_t> sizes(alloc.num_nodes(), 0);
  std::size_t left = np;
  std::vector<Bitmap> online(alloc.num_nodes());
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    online[i] = alloc.node(i).topo.online_pus();
    sizes[i] = std::min(left, online[i].count());
    left -= sizes[i];
  }

  const std::vector<std::vector<int>> parts = run.partition(procs, sizes);
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    run.descend(i, alloc.node(i).topo.root(), parts[i], online[i]);
  }

  run.result.visited = np;
  return run.result;
}

namespace {

class TreeMatchComponent final : public RmapsComponent {
 public:
  explicit TreeMatchComponent(CommMatrix matrix)
      : matrix_(std::move(matrix)) {}

  [[nodiscard]] std::string name() const override { return "treematch"; }
  [[nodiscard]] int priority() const override { return 40; }
  [[nodiscard]] MappingResult map(const Allocation& alloc, const std::string&,
                                  const MapOptions& opts) const override {
    return map_treematch(alloc, matrix_, opts);
  }

 private:
  CommMatrix matrix_;
};

}  // namespace

void register_treematch_component(RmapsRegistry& registry,
                                  CommMatrix matrix) {
  registry.register_component(
      std::make_unique<TreeMatchComponent>(std::move(matrix)));
}

}  // namespace lama
