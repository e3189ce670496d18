#include "lama/rankfile.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace lama {

namespace {

std::size_t find_alloc_node(const Allocation& alloc, const std::string& name,
                            int rank) {
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    if (alloc.node(i).topo.name() == name) return i;
  }
  throw MappingError("rankfile rank " + std::to_string(rank) +
                     " names node '" + name + "' which is not allocated");
}

// "<socket>:<corelist>" -> PUs of those logical cores within the socket;
// "<pulist>" -> logical PU indices.
Bitmap parse_slot_spec(const NodeTopology& topo, const std::string& spec,
                       int rank) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    return Bitmap::parse(spec);
  }
  const std::size_t socket_idx =
      parse_size(spec.substr(0, colon), "rankfile socket index");
  const std::vector<const TopoObject*> sockets =
      topo.objects_at(ResourceType::kSocket);
  if (socket_idx >= sockets.size()) {
    throw MappingError("rankfile rank " + std::to_string(rank) +
                       ": socket " + std::to_string(socket_idx) +
                       " does not exist on '" + topo.name() + "'");
  }
  const TopoObject& socket = *sockets[socket_idx];

  // Logical cores within the socket, in cpuset order.
  std::vector<const TopoObject*> cores;
  const std::vector<const TopoObject*> all_cores =
      topo.objects_at(ResourceType::kCore);
  for (const TopoObject* core : all_cores) {
    if (core->cpuset().is_subset_of(socket.cpuset())) cores.push_back(core);
  }
  if (cores.empty()) {
    throw MappingError("rankfile rank " + std::to_string(rank) +
                       ": node '" + topo.name() + "' has no core level");
  }

  Bitmap pus;
  const Bitmap core_list = Bitmap::parse(spec.substr(colon + 1));
  for (std::size_t c = core_list.first(); c != Bitmap::npos;
       c = core_list.next(c)) {
    if (c >= cores.size()) {
      throw MappingError("rankfile rank " + std::to_string(rank) + ": core " +
                         std::to_string(c) + " does not exist in socket " +
                         std::to_string(socket_idx) + " of '" + topo.name() +
                         "'");
    }
    pus |= cores[c]->cpuset();
  }
  return pus;
}

}  // namespace

RankfilePlacement parse_rankfile(const Allocation& alloc,
                                 const std::string& text) {
  alloc.validate();
  std::vector<RankfileEntry> entries;

  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    if (!starts_with(line, "rank")) {
      throw ParseError("rankfile line must start with 'rank': '" + line + "'");
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ParseError("rankfile line missing '=': '" + line + "'");
    }
    RankfileEntry entry;
    entry.rank = static_cast<int>(
        parse_size(trim(line.substr(4, eq - 4)), "rankfile rank number"));

    const std::string rest = trim(line.substr(eq + 1));
    const std::vector<std::string> fields = split_ws(rest);
    if (fields.size() != 2 || !starts_with(fields[1], "slot=")) {
      throw ParseError("rankfile line must be 'rank N=<node> slot=<spec>': '" +
                       line + "'");
    }
    entry.node_name = fields[0];
    entry.node = find_alloc_node(alloc, entry.node_name, entry.rank);

    const NodeTopology& topo = alloc.node(entry.node).topo;
    entry.cpuset = parse_slot_spec(topo, fields[1].substr(5), entry.rank);
    if (entry.cpuset.empty()) {
      throw MappingError("rankfile rank " + std::to_string(entry.rank) +
                         " has an empty processor set");
    }
    // Every referenced PU must exist and be online.
    const Bitmap online = topo.online_pus();
    if (!entry.cpuset.is_subset_of(online)) {
      Bitmap bad = entry.cpuset;
      bad.and_not(online);
      throw MappingError("rankfile rank " + std::to_string(entry.rank) +
                         " references PUs {" + bad.to_string() +
                         "} that do not exist or are off-line on '" +
                         topo.name() + "'");
    }
    entries.push_back(std::move(entry));
  }

  if (entries.empty()) {
    throw ParseError("rankfile specifies no ranks");
  }
  // Ranks must be exactly 0..N-1, each once.
  std::sort(entries.begin(), entries.end(),
            [](const RankfileEntry& a, const RankfileEntry& b) {
              return a.rank < b.rank;
            });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].rank != static_cast<int>(i)) {
      throw MappingError(
          entries[i].rank == (i == 0 ? -1 : entries[i - 1].rank)
              ? "rankfile specifies rank " + std::to_string(entries[i].rank) +
                    " more than once"
              : "rankfile ranks must be contiguous from 0; missing rank " +
                    std::to_string(i));
    }
  }

  RankfilePlacement placement;
  placement.mapping.layout = "rankfile";
  placement.mapping.procs_per_node.assign(alloc.num_nodes(), 0);
  placement.binding.target = BindTarget::kNone;  // widths are explicit

  // Overload detection: count ranks touching each PU.
  std::vector<std::vector<std::size_t>> pu_load(alloc.num_nodes());
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    pu_load[i].assign(alloc.node(i).topo.pu_count(), 0);
  }

  placement.mapping.reset_ranks(entries.size(), 1, 0);
  for (const RankfileEntry& entry : entries) {
    const auto rank = static_cast<std::size_t>(entry.rank);
    placement.mapping.set_node(rank, entry.node);
    placement.mapping.set_pus(rank, entry.cpuset);
    ++placement.mapping.procs_per_node[entry.node];

    ProcessBinding b;
    b.rank = entry.rank;
    b.node = entry.node;
    b.cpuset = entry.cpuset;
    b.width = entry.cpuset.count();
    placement.binding.bindings.push_back(std::move(b));

    for (std::size_t pu = entry.cpuset.first(); pu != Bitmap::npos;
         pu = entry.cpuset.next(pu)) {
      ++pu_load[entry.node][pu];
    }
  }
  placement.mapping.sweeps = 1;

  for (std::size_t n = 0; n < alloc.num_nodes(); ++n) {
    for (std::size_t load : pu_load[n]) {
      if (load > 1) {
        placement.mapping.pu_oversubscribed = true;
        placement.binding.overloaded = true;
      }
    }
    if (placement.mapping.procs_per_node[n] > alloc.node(n).slots) {
      placement.mapping.slot_oversubscribed = true;
    }
  }
  placement.entries = std::move(entries);
  return placement;
}

}  // namespace lama
