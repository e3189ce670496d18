#include "mpi/minimpi.hpp"

#include "support/error.hpp"

namespace lama {

namespace {

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

Comm::Comm(int rank, int size, RankScript& script)
    : rank_(rank), size_(size), script_(script) {
  LAMA_ASSERT(size >= 1 && rank >= 0 && rank < size);
}

void Comm::compute(double ns) {
  if (ns < 0.0) throw MappingError("compute time must be non-negative");
  script_.push_back({OpKind::kCompute, ns, -1, 0});
}

void Comm::send(int dst, std::size_t bytes) {
  if (dst < 0 || dst >= size_ || dst == rank_) {
    throw MappingError("invalid send destination " + std::to_string(dst));
  }
  script_.push_back({OpKind::kSend, 0.0, dst, bytes});
}

void Comm::recv(int src) {
  if (src < 0 || src >= size_ || src == rank_) {
    throw MappingError("invalid recv source " + std::to_string(src));
  }
  script_.push_back({OpKind::kRecv, 0.0, src, 0});
}

void Comm::sendrecv(int peer, std::size_t bytes) {
  send(peer, bytes);
  recv(peer);
}

void Comm::barrier() {
  if (size_ == 1) return;
  for (int dist = 1; dist < size_; dist *= 2) {
    const int to = (rank_ + dist) % size_;
    const int from = (rank_ - dist + size_) % size_;
    send(to, 0);
    recv(from);
  }
}

void Comm::bcast(int root, std::size_t bytes) {
  if (root < 0 || root >= size_) {
    throw MappingError("invalid bcast root " + std::to_string(root));
  }
  if (size_ == 1) return;
  const int vr = (rank_ - root + size_) % size_;  // relative rank
  for (int dist = 1; dist < size_; dist *= 2) {
    if (vr < dist) {
      // Already has the data; forward if the partner exists.
      if (vr + dist < size_) send((vr + dist + root) % size_, bytes);
    } else if (vr < 2 * dist) {
      recv((vr - dist + root) % size_);
    }
  }
}

void Comm::allreduce(std::size_t bytes) {
  if (size_ == 1) return;
  if (is_power_of_two(size_)) {
    for (int dist = 1; dist < size_; dist *= 2) {
      sendrecv(rank_ ^ dist, bytes);
    }
    return;
  }
  // Fallback: reduce to rank 0, then broadcast.
  if (rank_ == 0) {
    for (int src = 1; src < size_; ++src) recv(src);
  } else {
    send(0, bytes);
  }
  bcast(0, bytes);
}

void Comm::allgather(std::size_t block_bytes) {
  if (size_ == 1) return;
  const int right = (rank_ + 1) % size_;
  const int left = (rank_ - 1 + size_) % size_;
  for (int round = 0; round < size_ - 1; ++round) {
    send(right, block_bytes);
    recv(left);
  }
}

void Comm::alltoall(std::size_t bytes) {
  if (size_ == 1) return;
  if (is_power_of_two(size_)) {
    for (int k = 1; k < size_; ++k) {
      sendrecv(rank_ ^ k, bytes);
    }
    return;
  }
  for (int k = 1; k < size_; ++k) {
    send((rank_ + k) % size_, bytes);
    recv((rank_ - k + size_) % size_);
  }
}

std::vector<RankScript> record_program(
    int np, const std::function<void(Comm&)>& spmd) {
  if (np <= 0) throw MappingError("program needs at least one rank");
  std::vector<RankScript> scripts(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    Comm comm(r, np, scripts[static_cast<std::size_t>(r)]);
    spmd(comm);
  }
  return scripts;
}

SimReport run_program(const Allocation& alloc, const MappingResult& mapping,
                      const std::function<void(Comm&)>& spmd,
                      const DistanceModel& model, const NicModel& nic) {
  const std::vector<RankScript> scripts =
      record_program(static_cast<int>(mapping.num_procs()), spmd);
  return simulate(alloc, mapping, scripts, model, nic);
}

}  // namespace lama
