#include "topo/fingerprint.hpp"

#include "support/hash.hpp"

namespace lama {

std::uint64_t topology_fingerprint(const NodeTopology& topo) {
  return mix64(topo.content_hash());
}

}  // namespace lama
