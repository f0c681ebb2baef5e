// CRC-32 (IEEE 802.3 polynomial, reflected), the integrity trailer on the
// binary checkpoint format (src/core/checkpoint.hpp) and on every binary
// serve request frame (src/serve/protocol.hpp), so it runs once per request
// (docs/SERVING.md, "What a request costs"). Slice-by-8: one 8-byte word per
// step through eight 256-entry tables, the byte table only for the tail.
// The values are the byte-at-a-time CRC's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sea::support {

// CRC-32 of `len` bytes at `data`, continuing from `seed` (0 for a fresh
// checksum). Chainable: Crc32(b, nb, Crc32(a, na)) == Crc32(ab, na + nb).
std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

inline std::uint32_t Crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace sea::support
