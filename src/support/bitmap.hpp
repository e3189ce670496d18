// Dynamic bitset used throughout the library as a "cpuset": a set of
// processing-unit (PU) indices. Mirrors the role hwloc_bitmap_t plays in the
// paper's Open MPI implementation: every topology object carries the set of
// PUs it spans, and binding is expressed as a cpuset handed to the OS.
//
// The read-only set logic lives once, in BitmapView: a non-owning view over
// a span of 64-bit words (bit i is bit i%64 of word i/64; trailing zero
// words are allowed). A Bitmap owns its words and answers every read-only
// query through its view; MappingResult hands out views over the PU-set
// column it stores per rank (lama/mapping.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace lama {

class BitmapView {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  BitmapView() = default;
  explicit BitmapView(std::span<const std::uint64_t> words) : words_(words) {}

  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  [[nodiscard]] bool test(std::size_t bit) const;
  // Number of set bits.
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool empty() const;
  // Index of the first/last set bit, or npos when empty.
  [[nodiscard]] std::size_t first() const;
  [[nodiscard]] std::size_t last() const;
  // First set bit strictly greater than `bit` (pass npos to start).
  [[nodiscard]] std::size_t next(std::size_t bit) const;
  // The n-th set bit (0-based), or npos if fewer than n+1 bits are set.
  [[nodiscard]] std::size_t nth(std::size_t n) const;
  // Words up to and including the last nonzero one (0 when empty).
  [[nodiscard]] std::size_t used_words() const;

  [[nodiscard]] bool intersects(BitmapView other) const;
  // True when every bit of *this is also set in `other`.
  [[nodiscard]] bool is_subset_of(BitmapView other) const;
  // Same set bits; the word counts may differ.
  [[nodiscard]] bool equals(BitmapView other) const;

  // All set bits in ascending order.
  [[nodiscard]] std::vector<std::size_t> to_vector() const;
  // Render as a cpuset list string: "0,2-5,8"; "" when empty.
  [[nodiscard]] std::string to_string() const;

 private:
  std::span<const std::uint64_t> words_;
};

class Bitmap {
 public:
  static constexpr std::size_t npos = BitmapView::npos;

  Bitmap() = default;

  // Bitmap with bits [0, nbits) present but clear.
  explicit Bitmap(std::size_t nbits) : words_((nbits + 63) / 64, 0) {}

  // A copy of the viewed set.
  explicit Bitmap(BitmapView view)
      : words_(view.words().begin(),
               view.words().begin() +
                   static_cast<std::ptrdiff_t>(view.used_words())) {}

  // Bitmap with bits [0, nbits) all set.
  static Bitmap full(std::size_t nbits);

  // Bitmap with exactly one bit set.
  static Bitmap single(std::size_t bit);

  // Bitmap with bits [first, last] set (inclusive range).
  static Bitmap range(std::size_t first, std::size_t last);

  // Parse a cpuset list string such as "0,2-5,8". Throws ParseError.
  static Bitmap parse(const std::string& text);

  [[nodiscard]] BitmapView view() const { return BitmapView(words_); }
  // Implicit, as std::string converts to std::string_view: every API that
  // takes a BitmapView also takes a Bitmap.
  operator BitmapView() const { return view(); }

  void set(std::size_t bit);
  void clear(std::size_t bit);
  void clear_all() { words_.assign(words_.size(), 0); }

  [[nodiscard]] bool test(std::size_t bit) const { return view().test(bit); }
  [[nodiscard]] std::size_t count() const { return view().count(); }
  [[nodiscard]] bool empty() const { return view().empty(); }
  [[nodiscard]] std::size_t first() const { return view().first(); }
  [[nodiscard]] std::size_t last() const { return view().last(); }
  [[nodiscard]] std::size_t next(std::size_t bit) const {
    return view().next(bit);
  }
  [[nodiscard]] std::size_t nth(std::size_t n) const { return view().nth(n); }

  Bitmap& operator|=(BitmapView other);
  Bitmap& operator&=(BitmapView other);
  Bitmap& operator^=(BitmapView other);
  // Remove every bit present in `other`.
  Bitmap& and_not(BitmapView other);

  friend Bitmap operator|(Bitmap a, const Bitmap& b) { return a |= b; }
  friend Bitmap operator&(Bitmap a, const Bitmap& b) { return a &= b; }
  friend Bitmap operator^(Bitmap a, const Bitmap& b) { return a ^= b; }

  [[nodiscard]] bool intersects(BitmapView other) const {
    return view().intersects(other);
  }
  // True when every bit of *this is also set in `other`.
  [[nodiscard]] bool is_subset_of(BitmapView other) const {
    return view().is_subset_of(other);
  }

  bool operator==(const Bitmap& other) const {
    return view().equals(other.view());
  }
  bool operator!=(const Bitmap& other) const { return !(*this == other); }

  [[nodiscard]] std::vector<std::size_t> to_vector() const {
    return view().to_vector();
  }
  [[nodiscard]] std::string to_string() const { return view().to_string(); }

 private:
  void ensure_bit(std::size_t bit);
  void trim();

  std::vector<std::uint64_t> words_;
};

}  // namespace lama
