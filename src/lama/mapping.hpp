// Result types of the mapping step (§III-A): a plan pairing ranks to
// processing resources. Mapping only *plans* — no process is launched and no
// binding is enforced here. Each rank gets a node, a set of PUs addressed to
// the resolution of the smallest processing unit the layout can
// distinguish, and (from the layout walks) its Figure 1 coordinate.
//
// Result form: per-rank columns, and the rank is the index.
//   * node: one u32 per rank, the node's index within the Allocation;
//   * PU set: pu_stride() 64-bit words per rank — node-local PU indices,
//     one word when the largest node has at most 64 PUs;
//   * coordinate: a per-result number of u32s per rank, one per layout
//     letter in layout order; none for producers that assign no coordinate
//     (rankfile, the by-slot/by-node baselines, treematch).
// A result therefore makes a constant number of heap allocations whatever
// np is, a copy is a few memcpys and a move is free. Consumers read a
// rank's PU set through a non-owning BitmapView.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/bitmap.hpp"

namespace lama {

struct MappingResult {
  std::string layout;  // layout string the mapping was produced from

  // Number of full passes over the iteration space (1 = no wraparound;
  // more than the minimum needed means some resources were skipped).
  std::size_t sweeps = 0;
  // Coordinates visited that were nonexistent or unavailable.
  std::size_t skipped = 0;
  // Total leaf coordinates visited (mapped + skipped); the work the
  // recursive iteration performed.
  std::size_t visited = 0;

  // True when some smallest processing unit must run more than one process.
  bool pu_oversubscribed = false;
  // True when some node received more processes than its scheduler slots.
  bool slot_oversubscribed = false;

  std::vector<std::size_t> procs_per_node;

  [[nodiscard]] std::size_t num_procs() const { return nodes_.size(); }

  // Index of the rank's node within the Allocation (not the cluster).
  [[nodiscard]] std::size_t node(std::size_t rank) const {
    return nodes_[rank];
  }
  // Online PUs of the rank's target: a single PU when the layout
  // distinguishes hardware threads, a core's/cache's worth when deeper
  // levels were pruned, the union of its targets for multi-PU processes.
  [[nodiscard]] BitmapView pus(std::size_t rank) const {
    return BitmapView(std::span<const std::uint64_t>(
        pu_words_.data() + rank * pu_stride_, pu_stride_));
  }
  // Representative PU: the first PU of the target (npos when empty).
  [[nodiscard]] std::size_t representative_pu(std::size_t rank) const {
    return pus(rank).first();
  }
  // Iteration coordinate, one index per layout letter in layout order;
  // empty when the producer assigns none.
  [[nodiscard]] std::span<const std::uint32_t> coord(std::size_t rank) const {
    return {coords_.data() + rank * coord_stride_, coord_stride_};
  }
  // Words per rank of the PU-set column.
  [[nodiscard]] std::size_t pu_stride() const { return pu_stride_; }

  // --- producers ----------------------------------------------------------
  // Sizes the columns for `np` ranks at the given strides: every rank on
  // node 0 with an empty PU set and a zero coordinate. Reuses the columns'
  // capacity, so a result refilled at the same shape allocates nothing.
  void reset_ranks(std::size_t np, std::size_t pu_stride,
                   std::size_t coord_stride);
  void set_node(std::size_t rank, std::size_t node) {
    nodes_[rank] = static_cast<std::uint32_t>(node);
  }
  // Copies `pus` into the rank's PU set. A set that needs more words than
  // the stride widens the column for every rank first.
  void set_pus(std::size_t rank, BitmapView pus);
  // `coord` carries exactly the result's coordinate stride of entries.
  void set_coord(std::size_t rank, std::span<const std::size_t> coord);
  // Copies rank `from_rank` of `from` into `rank`: node and PU set, and the
  // coordinate when both results carry coordinates at the same stride.
  void copy_rank(std::size_t rank, const MappingResult& from,
                 std::size_t from_rank);

 private:
  std::vector<std::uint32_t> nodes_;
  std::size_t pu_stride_ = 1;
  std::vector<std::uint64_t> pu_words_;
  std::size_t coord_stride_ = 0;
  std::vector<std::uint32_t> coords_;
};

}  // namespace lama
