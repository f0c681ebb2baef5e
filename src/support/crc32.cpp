#include "support/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace sea::support {

namespace {

// The frame and checkpoint codecs write native-endian integers and assume
// little-endian targets; the word loop below reads its bytes in that order.
static_assert(std::endian::native == std::endian::little,
              "Crc32's slice-by-8 loop assumes a little-endian target");

using Table = std::array<std::uint32_t, 256>;

// Slice-by-8: kTables[0] is the reflected IEEE byte table (0xEDB88320), and
// kTables[k][b] the CRC register after byte b followed by k zero bytes, so
// eight lookups advance the register over one 8-byte word.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = kTables[7][w & 0xFFu] ^ kTables[6][(w >> 8) & 0xFFu] ^
        kTables[5][(w >> 16) & 0xFFu] ^ kTables[4][(w >> 24) & 0xFFu] ^
        kTables[3][(w >> 32) & 0xFFu] ^ kTables[2][(w >> 40) & 0xFFu] ^
        kTables[1][(w >> 48) & 0xFFu] ^ kTables[0][w >> 56];
  }
  for (; len > 0; --len, ++p) c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace sea::support
