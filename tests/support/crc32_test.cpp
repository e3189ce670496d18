// CRC-32C: the published check value, a differential against the plain
// byte-at-a-time definition over every length up to 1100 bytes from
// unaligned starts, and seed chaining across buffers.
#include "support/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/rng.hpp"

namespace lama {
namespace {

// The bitwise definition: reflected polynomial 0x82f63b78, no table.
std::uint32_t reference_crc32c(std::string_view data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
    }
  }
  return ~crc;
}

std::string random_bytes(SplitMix64& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next() & 0xffu);
  return out;
}

TEST(Crc32c, CheckValue) {
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SplitMix64 rng(seed);
    // Slack in front lets each length start at every offset mod 8.
    const std::string buffer = random_bytes(rng, 1100 + 8);
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::size_t offset = (len + seed) % 8;
      const std::string_view data(buffer.data() + offset, len);
      const auto crc_seed = static_cast<std::uint32_t>(rng.next());
      ASSERT_EQ(crc32c(data, crc_seed), reference_crc32c(data, crc_seed))
          << "seed " << seed << " length " << len << " offset " << offset;
      ASSERT_EQ(crc32c(data), reference_crc32c(data, 0))
          << "seed " << seed << " length " << len << " offset " << offset;
    }
  }
}

TEST(Crc32c, ChainsAcrossBuffers) {
  SplitMix64 rng(3);
  const std::string whole = random_bytes(rng, 300);
  for (std::size_t split = 0; split <= whole.size(); split += 13) {
    const std::string_view a(whole.data(), split);
    const std::string_view b(whole.data() + split, whole.size() - split);
    EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(whole)) << "split " << split;
  }
}

}  // namespace
}  // namespace lama
