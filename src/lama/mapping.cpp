#include "lama/mapping.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace lama {

void MappingResult::reset_ranks(std::size_t np, std::size_t pu_stride,
                                std::size_t coord_stride) {
  pu_stride_ = std::max<std::size_t>(pu_stride, 1);
  coord_stride_ = coord_stride;
  nodes_.assign(np, 0);
  pu_words_.assign(np * pu_stride_, 0);
  coords_.assign(np * coord_stride_, 0);
}

void MappingResult::set_pus(std::size_t rank, BitmapView pus) {
  const std::span<const std::uint64_t> words = pus.words();
  const std::size_t used = pus.used_words();
  if (used > pu_stride_) {
    std::vector<std::uint64_t> wider(num_procs() * used, 0);
    for (std::size_t r = 0; r < num_procs(); ++r) {
      std::copy_n(pu_words_.data() + r * pu_stride_, pu_stride_,
                  wider.data() + r * used);
    }
    pu_words_.swap(wider);
    pu_stride_ = used;
  }
  std::uint64_t* dst = pu_words_.data() + rank * pu_stride_;
  std::copy_n(words.begin(), used, dst);
  std::fill(dst + used, dst + pu_stride_, 0);
}

void MappingResult::set_coord(std::size_t rank,
                              std::span<const std::size_t> coord) {
  LAMA_ASSERT(coord.size() == coord_stride_);
  std::uint32_t* dst = coords_.data() + rank * coord_stride_;
  for (std::size_t i = 0; i < coord.size(); ++i) {
    dst[i] = static_cast<std::uint32_t>(coord[i]);
  }
}

void MappingResult::copy_rank(std::size_t rank, const MappingResult& from,
                              std::size_t from_rank) {
  nodes_[rank] = from.nodes_[from_rank];
  set_pus(rank, from.pus(from_rank));
  if (coord_stride_ > 0 && coord_stride_ == from.coord_stride_) {
    const std::span<const std::uint32_t> c = from.coord(from_rank);
    std::copy(c.begin(), c.end(), coords_.data() + rank * coord_stride_);
  }
}

}  // namespace lama
