// Heap allocations made by the calling thread. The benchmark binary replaces
// the global operator new with one that bumps a thread-local counter, so the
// traced mode can count what one call allocates without seeing the server's
// own threads.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t thread_allocs();

}  // namespace perfbench
