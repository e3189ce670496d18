#include "svc/counters.hpp"

namespace lama::svc {

std::uint64_t NetCounters::active() const {
  const std::uint64_t opened = accepted.load(std::memory_order_relaxed);
  const std::uint64_t done = closed.load(std::memory_order_relaxed);
  return opened >= done ? opened - done : 0;
}

}  // namespace lama::svc
