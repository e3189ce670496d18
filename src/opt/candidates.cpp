#include "opt/candidates.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "tmatch/treematch.hpp"

namespace lama::opt {

const std::vector<std::string>& canonical_layouts() {
  // Innermost letter varies fastest: "scbnh" is the paper's default scatter,
  // "hcsbn" the within-node pack, "nbsch" the by-node scatter. The full
  // 9-letter pack/scatter close the extremes; the rest sample the middle.
  static const std::vector<std::string> kLayouts = {
      "scbnh",                                // paper default (Figure 2)
      "hcsbn",                                // pack threads first, nodes last
      "nbsch",                                // scatter across nodes first
      "cbsnh",                                // cores fastest, threads last
      "schbn",                                // sockets fastest
      "bnsch",                                // boards then nodes fastest
      ProcessLayout::full_pack().to_string(),     // classic by-slot
      ProcessLayout::full_scatter().to_string(),  // classic by-node
  };
  return kLayouts;
}

std::vector<CandidateSpec> make_candidates(const Allocation& alloc,
                                           std::size_t np,
                                           std::size_t max_candidates,
                                           std::size_t max_pack_shapes) {
  std::vector<CandidateSpec> specs;
  for (const std::string& layout : canonical_layouts()) {
    CandidateSpec spec;
    spec.source = "layout:" + layout;
    spec.canonical = true;
    spec.kind = CandidateSpec::Kind::kLayout;
    spec.layout = layout;
    specs.push_back(std::move(spec));
  }

  {
    CandidateSpec spec;
    spec.source = "multisection";
    spec.kind = CandidateSpec::Kind::kMultisection;
    specs.push_back(std::move(spec));
  }

  // The shape family: pack onto exactly k nodes (balanced by an npernode
  // cap), k swept from the fewest nodes that can host np up to all of them.
  // Canonical layouts only ever produce the two extremes of this axis.
  const std::size_t nodes = alloc.num_nodes();
  if (nodes > 1 && np > 0) {
    std::size_t per_node_pus = 0;
    for (std::size_t n = 0; n < nodes; ++n) {
      per_node_pus = std::max(per_node_pus,
                              alloc.node(n).topo.online_pus().count());
    }
    const std::size_t min_nodes =
        per_node_pus == 0 ? nodes : (np + per_node_pus - 1) / per_node_pus;
    const std::size_t lo = std::max<std::size_t>(1, min_nodes);
    if (lo <= nodes) {
      const std::size_t span = nodes - lo + 1;
      const std::size_t shapes = std::min(span, max_pack_shapes);
      for (std::size_t i = 0; i < shapes; ++i) {
        // Spread k evenly across [lo, nodes]; first and last always in.
        const std::size_t k =
            shapes == 1 ? lo : lo + (span - 1) * i / (shapes - 1);
        CandidateSpec spec;
        spec.source = "pack:" + std::to_string(k);
        spec.kind = CandidateSpec::Kind::kCappedPack;
        spec.layout = "hcsbn";
        spec.npernode = (np + k - 1) / k;
        specs.push_back(std::move(spec));
      }
    }
  }

  // Truncate the tail only: the canonical head always survives, so every
  // optimization — however small its budget — prices the full static
  // baseline it must beat.
  const std::size_t floor = canonical_layouts().size();
  if (max_candidates > 0 && specs.size() > std::max(max_candidates, floor)) {
    specs.resize(std::max(max_candidates, floor));
  }
  return specs;
}

std::vector<std::vector<std::size_t>> group_by_tree(
    const std::vector<CandidateSpec>& specs) {
  std::vector<std::vector<std::size_t>> groups;
  // The (levels, 'n' present) key of each group; multisection keys apart.
  std::vector<std::pair<std::vector<ResourceType>, int>> keys;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::pair<std::vector<ResourceType>, int> key{{}, -1};
    if (specs[i].kind != CandidateSpec::Kind::kMultisection) {
      const ProcessLayout layout = ProcessLayout::parse(specs[i].layout);
      key = {layout.node_levels_by_containment(),
             layout.contains(ResourceType::kNode) ? 1 : 0};
    }
    const auto k = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), key) - keys.begin());
    if (k == keys.size()) {
      keys.push_back(std::move(key));
      groups.emplace_back();
    }
    groups[k].push_back(i);
  }
  return groups;
}

std::unique_ptr<const MaximalTree> group_tree(const Allocation& alloc,
                                              const CandidateSpec& first) {
  if (first.kind == CandidateSpec::Kind::kMultisection) return nullptr;
  return std::make_unique<const MaximalTree>(
      alloc, ProcessLayout::parse(first.layout));
}

MappingResult realize_candidate(const Allocation& alloc,
                                const CommMatrix& matrix, std::size_t np,
                                const CandidateSpec& spec,
                                const MaximalTree* tree) {
  return realize_candidate(alloc, CommGraph(matrix), np, spec, tree);
}

MappingResult realize_candidate(const Allocation& alloc,
                                const CommGraph& graph, std::size_t np,
                                const CandidateSpec& spec,
                                const MaximalTree* tree) {
  MapOptions opts;
  opts.np = np;
  opts.allow_oversubscribe = true;
  auto walk = [&](const MapOptions& o) {
    LAMA_ASSERT(tree != nullptr);
    return lama_map(alloc, ProcessLayout::parse(spec.layout), o, *tree);
  };
  switch (spec.kind) {
    case CandidateSpec::Kind::kLayout:
      return walk(opts);
    case CandidateSpec::Kind::kMultisection: {
      // The partitioner does not wrap around; beyond capacity the seed is
      // simply unavailable (OversubscribeError propagates to the caller).
      MapOptions ms_opts;
      ms_opts.np = np;
      ms_opts.allow_oversubscribe = false;
      return map_treematch(alloc, graph, ms_opts);
    }
    case CandidateSpec::Kind::kCappedPack: {
      opts.set_cap(ResourceType::kNode, spec.npernode);
      return walk(opts);
    }
  }
  throw MappingError("unknown candidate kind");
}

}  // namespace lama::opt
