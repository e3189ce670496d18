#include "support/bitmap.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace lama {

bool BitmapView::test(std::size_t bit) const {
  const std::size_t word = bit / 64;
  return word < words_.size() && (words_[word] >> (bit % 64)) & 1ULL;
}

std::size_t BitmapView::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitmapView::empty() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::size_t BitmapView::first() const {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != 0) {
      return i * 64 + static_cast<std::size_t>(std::countr_zero(words_[i]));
    }
  }
  return npos;
}

std::size_t BitmapView::last() const {
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != 0) {
      return i * 64 + 63 -
             static_cast<std::size_t>(std::countl_zero(words_[i]));
    }
  }
  return npos;
}

std::size_t BitmapView::next(std::size_t bit) const {
  std::size_t start = (bit == npos) ? 0 : bit + 1;
  std::size_t word = start / 64;
  if (word >= words_.size()) return npos;
  // Mask off bits at or below `bit` in the starting word.
  std::uint64_t w = words_[word] & (~0ULL << (start % 64));
  while (true) {
    if (w != 0) {
      return word * 64 + static_cast<std::size_t>(std::countr_zero(w));
    }
    if (++word >= words_.size()) return npos;
    w = words_[word];
  }
}

std::size_t BitmapView::nth(std::size_t n) const {
  std::size_t bit = first();
  while (bit != npos && n > 0) {
    bit = next(bit);
    --n;
  }
  return bit;
}

std::size_t BitmapView::used_words() const {
  std::size_t n = words_.size();
  while (n > 0 && words_[n - 1] == 0) --n;
  return n;
}

bool BitmapView::intersects(BitmapView other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool BitmapView::is_subset_of(BitmapView other) const {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t theirs = i < other.words_.size() ? other.words_[i] : 0;
    if ((words_[i] & ~theirs) != 0) return false;
  }
  return true;
}

bool BitmapView::equals(BitmapView other) const {
  const std::size_t n = std::max(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < words_.size() ? words_[i] : 0;
    const std::uint64_t b = i < other.words_.size() ? other.words_[i] : 0;
    if (a != b) return false;
  }
  return true;
}

std::vector<std::size_t> BitmapView::to_vector() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t bit = first(); bit != npos; bit = next(bit)) {
    out.push_back(bit);
  }
  return out;
}

std::string BitmapView::to_string() const {
  std::string out;
  std::size_t bit = first();
  while (bit != npos) {
    // Extend the run as far as it is contiguous.
    std::size_t run_end = bit;
    while (test(run_end + 1)) ++run_end;
    if (!out.empty()) out += ',';
    out += std::to_string(bit);
    if (run_end > bit) {
      out += '-';
      out += std::to_string(run_end);
    }
    bit = next(run_end);
  }
  return out;
}

Bitmap Bitmap::full(std::size_t nbits) {
  Bitmap b(nbits);
  for (std::size_t i = 0; i < nbits; ++i) b.set(i);
  return b;
}

Bitmap Bitmap::single(std::size_t bit) {
  Bitmap b;
  b.set(bit);
  return b;
}

Bitmap Bitmap::range(std::size_t first, std::size_t last) {
  LAMA_ASSERT(first <= last);
  Bitmap b;
  for (std::size_t i = first; i <= last; ++i) b.set(i);
  return b;
}

Bitmap Bitmap::parse(const std::string& text) {
  Bitmap b;
  const std::string trimmed = lama::trim(text);
  if (trimmed.empty()) return b;
  for (const std::string& piece : split(trimmed, ',')) {
    const std::string p = lama::trim(piece);
    const auto dash = p.find('-');
    if (dash == std::string::npos) {
      b.set(parse_size(p, "cpuset element"));
    } else {
      const std::size_t lo = parse_size(p.substr(0, dash), "cpuset range start");
      const std::size_t hi = parse_size(p.substr(dash + 1), "cpuset range end");
      if (lo > hi) throw ParseError("cpuset range reversed: " + p);
      for (std::size_t i = lo; i <= hi; ++i) b.set(i);
    }
  }
  return b;
}

void Bitmap::ensure_bit(std::size_t bit) {
  const std::size_t word = bit / 64;
  if (word >= words_.size()) words_.resize(word + 1, 0);
}

void Bitmap::trim() {
  while (!words_.empty() && words_.back() == 0) words_.pop_back();
}

void Bitmap::set(std::size_t bit) {
  ensure_bit(bit);
  words_[bit / 64] |= (1ULL << (bit % 64));
}

void Bitmap::clear(std::size_t bit) {
  const std::size_t word = bit / 64;
  if (word < words_.size()) words_[word] &= ~(1ULL << (bit % 64));
}

// The in-place ops read `other` before they resize, and only grow when
// `other` is longer — so a view of *this itself stays valid.
Bitmap& Bitmap::operator|=(BitmapView other) {
  const std::span<const std::uint64_t> w = other.words();
  if (w.size() > words_.size()) words_.resize(w.size(), 0);
  for (std::size_t i = 0; i < w.size(); ++i) words_[i] |= w[i];
  return *this;
}

Bitmap& Bitmap::operator&=(BitmapView other) {
  const std::span<const std::uint64_t> w = other.words();
  const std::size_t n = std::min(words_.size(), w.size());
  for (std::size_t i = 0; i < n; ++i) words_[i] &= w[i];
  for (std::size_t i = n; i < words_.size(); ++i) words_[i] = 0;
  trim();
  return *this;
}

Bitmap& Bitmap::operator^=(BitmapView other) {
  const std::span<const std::uint64_t> w = other.words();
  if (w.size() > words_.size()) words_.resize(w.size(), 0);
  for (std::size_t i = 0; i < w.size(); ++i) words_[i] ^= w[i];
  trim();
  return *this;
}

Bitmap& Bitmap::and_not(BitmapView other) {
  const std::span<const std::uint64_t> w = other.words();
  const std::size_t n = std::min(words_.size(), w.size());
  for (std::size_t i = 0; i < n; ++i) words_[i] &= ~w[i];
  trim();
  return *this;
}

}  // namespace lama
