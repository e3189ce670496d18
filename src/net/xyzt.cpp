#include "net/xyzt.hpp"

#include <algorithm>
#include <cctype>
#include <memory>

#include "lama/rmaps.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace lama {

MappingResult map_xyzt(const Allocation& alloc, const TorusNetwork& net,
                       const std::string& order, const MapOptions& opts) {
  if (opts.np == 0) throw MappingError("number of processes must be positive");
  alloc.validate();
  if (alloc.num_nodes() != net.num_nodes()) {
    throw MappingError("XYZT mapping needs one allocated node per torus "
                       "position: allocation has " +
                       std::to_string(alloc.num_nodes()) + ", torus has " +
                       std::to_string(net.num_nodes()));
  }

  // Validate the order string: a permutation of XYZT.
  const std::string upper = [&] {
    std::string u = trim(order);
    for (char& c : u) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return u;
  }();
  std::string sorted = upper;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != "TXYZ") {
    throw ParseError("XYZT order must be a permutation of \"XYZT\": '" +
                     order + "'");
  }

  // Per-node online PU lists; T's loop width is the widest node.
  std::vector<std::vector<std::size_t>> pus(alloc.num_nodes());
  std::size_t t_width = 0;
  std::size_t capacity = 0;
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    pus[i] = alloc.node(i).topo.online_pus().to_vector();
    t_width = std::max(t_width, pus[i].size());
    capacity += pus[i].size();
  }
  if (!opts.allow_oversubscribe && opts.np > capacity) {
    throw OversubscribeError(
        "job of " + std::to_string(opts.np) + " processes exceeds the " +
        std::to_string(capacity) +
        " online processing units and oversubscription is disallowed");
  }

  // Loop widths, leftmost letter innermost.
  std::size_t widths[4];
  auto dim_width = [&](char c) -> std::size_t {
    switch (c) {
      case 'X': return static_cast<std::size_t>(net.nx());
      case 'Y': return static_cast<std::size_t>(net.ny());
      case 'Z': return static_cast<std::size_t>(net.nz());
      default: return t_width;
    }
  };
  for (std::size_t i = 0; i < 4; ++i) widths[i] = dim_width(upper[i]);

  MappingResult result;
  result.layout = "xyzt:" + upper;
  result.procs_per_node.assign(alloc.num_nodes(), 0);
  result.reset_ranks(opts.np, 1, 4);

  std::size_t rank = 0;
  std::size_t coord[4] = {0, 0, 0, 0};  // per order position
  auto value_of = [&](char c) -> std::size_t {
    const auto pos = upper.find(c);
    LAMA_ASSERT(pos < 4);  // `upper` is a validated permutation of XYZT
    return coord[pos];
  };

  while (rank < opts.np) {
    const std::size_t before = rank;
    ++result.sweeps;
    // Four nested loops as a mixed-radix counter, position 0 fastest.
    std::size_t total = widths[0] * widths[1] * widths[2] * widths[3];
    for (std::size_t it = 0; it < total && rank < opts.np; ++it) {
      std::size_t v = it;
      for (std::size_t i = 0; i < 4; ++i) {
        coord[i] = v % widths[i];
        v /= widths[i];
      }
      ++result.visited;
      const std::size_t node = net.node_of(
          TorusCoord{static_cast<int>(value_of('X')),
                     static_cast<int>(value_of('Y')),
                     static_cast<int>(value_of('Z'))});
      const std::size_t t = value_of('T');
      if (t >= pus[node].size()) {
        ++result.skipped;
        continue;
      }
      result.set_node(rank, node);
      result.set_pus(rank, Bitmap::single(pus[node][t]));
      result.set_coord(rank, coord);
      ++result.procs_per_node[node];
      ++rank;
    }
    if (rank == before) {
      throw MappingError("XYZT mapping found no available processing units");
    }
  }

  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    if (result.procs_per_node[i] > pus[i].size()) {
      result.pu_oversubscribed = true;
    }
    if (result.procs_per_node[i] > alloc.node(i).slots) {
      result.slot_oversubscribed = true;
    }
  }
  return result;
}

namespace {

class XyztComponent final : public RmapsComponent {
 public:
  explicit XyztComponent(TorusNetwork net) : net_(std::move(net)) {}

  [[nodiscard]] std::string name() const override { return "xyzt"; }
  [[nodiscard]] int priority() const override { return 20; }
  [[nodiscard]] MappingResult map(const Allocation& alloc,
                                  const std::string& args,
                                  const MapOptions& opts) const override {
    return map_xyzt(alloc, net_, args.empty() ? "XYZT" : args, opts);
  }

 private:
  TorusNetwork net_;
};

}  // namespace

void register_xyzt_component(RmapsRegistry& registry, TorusNetwork net) {
  registry.register_component(
      std::make_unique<XyztComponent>(std::move(net)));
}

}  // namespace lama
