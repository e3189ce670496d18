// Canonical topology hashing. The mapping service caches maximal/pruned
// trees across requests, so it needs a stable identity for "the same
// hardware": a 64-bit hash over the canonical serialized form
// (topo/serialize.hpp), which already captures the full tree shape, OS
// indices, and disabled markers while ignoring cosmetic state such as the
// node name. serialize → parse → fingerprint is a fixed point, so a topology
// that travelled over the wire hashes identically to the original. The hash
// of the serialized form is cached with the topology's tree
// (NodeTopology::content_hash), so a fingerprint costs no walk.
#pragma once

#include <cstdint>

#include "topo/node_topology.hpp"

namespace lama {

std::uint64_t topology_fingerprint(const NodeTopology& topo);

}  // namespace lama
