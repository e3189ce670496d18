// Process-to-process communication matrix: the input of affinity-driven
// mapping algorithms (Jeannot & Mercier's TreeMatch, cited as [3] in the
// paper's related work). Symmetric byte volumes; the diagonal is ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/traffic.hpp"

namespace lama {

class CommMatrix {
 public:
  explicit CommMatrix(int np);

  // Accumulates a pattern's messages (volumes add up; direction ignored).
  static CommMatrix from_pattern(const TrafficPattern& pattern);

  // Text format for profiled matrices (the way a tool like mpiP or a PMPI
  // tracer would hand the data over):
  //   np <N>
  //   <src> <dst> <bytes>     # one edge per line, comments allowed
  //   row <i> <v0> ... <v(np-1)>  # or dense rows; must be np values and
  //                               # the assembled matrix must be symmetric
  // Edge and row weights must be finite and non-negative; a dense row with
  // the wrong value count (a non-square matrix) is rejected. These are the
  // wire-facing invariants the service's OPTIMIZE verb depends on.
  static CommMatrix parse(const std::string& text);
  [[nodiscard]] std::string serialize() const;

  // Canonical content hash: np plus every upper-triangle cell, independent
  // of the order edges were added or rows were listed in. The optimizer
  // cache keys results under (allocation fingerprint, matrix digest), so
  // two semantically identical matrices must collide here by construction.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] int np() const { return np_; }

  void add(int a, int b, double bytes);
  [[nodiscard]] double at(int a, int b) const;
  // Row p's np cells: row(p)[q] == at(p, q).
  [[nodiscard]] std::span<const double> row(int p) const {
    return {cells_.data() +
                static_cast<std::size_t>(p) * static_cast<std::size_t>(np_),
            static_cast<std::size_t>(np_)};
  }

  // Total volume process `p` exchanges with everyone.
  [[nodiscard]] double row_sum(int p) const;

  // Volume `p` exchanges with the given set of processes.
  [[nodiscard]] double affinity(int p, const std::vector<int>& group) const;

 private:
  friend class CommGraph;

  int np_;
  std::vector<double> cells_;  // np x np, symmetric
};

// A matrix's nonzero cells in compressed-sparse-row form. Row p lists p's
// partners in ascending order with their volumes (the diagonal and zero
// cells are absent), so a sum over a row adds exactly the nonzero terms of
// a dense at(p, 0..np-1) scan, in the same order, and gives the same bits.
// The matrix is symmetric, so q is in row p exactly when p is in row q.
class CommGraph {
 public:
  struct Edge {
    int peer = 0;
    double bytes = 0.0;
  };

  // Two passes over the dense upper triangle: O(np^2) reads, no regrowth.
  explicit CommGraph(const CommMatrix& matrix);

  [[nodiscard]] int np() const {
    return static_cast<int>(row_start_.size()) - 1;
  }
  [[nodiscard]] std::span<const Edge> row(int p) const {
    return {edges_.data() + row_start_[static_cast<std::size_t>(p)],
            edges_.data() + row_start_[static_cast<std::size_t>(p) + 1]};
  }

 private:
  std::vector<std::size_t> row_start_;  // np + 1 offsets into edges_
  std::vector<Edge> edges_;
};

}  // namespace lama
