// CRC-32C (Castagnoli). It seals every durable journal record
// (dur/journal.hpp frames each mutation as [len][crc][digest][payload], and
// recovery truncates at the first seal mismatch) and every binary wire frame
// (svc/wire.hpp), where it runs over each reply — tens of kilobytes for a
// large MAP. Slicing-by-8: eight 256-entry tables fold eight input bytes per
// step, read as a little-endian word composed from bytes, so the loop makes
// no misaligned or type-punned loads and gives the same values on any host.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lama {

namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the byte-at-a-time table; tables[k][b] is the CRC of byte b
// followed by k zero bytes.
inline Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

inline const Crc32cTables& crc32c_tables() {
  static const Crc32cTables tables = make_crc32c_tables();
  return tables;
}

}  // namespace detail

// CRC-32C over `data`, continuing from `seed` so checksums chain across
// buffers. Pass the previous call's return value as the next seed.
inline std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) {
  const detail::Crc32cTables& t = detail::crc32c_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  return ~crc;
}

}  // namespace lama
