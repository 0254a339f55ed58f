#include "common/checksum.h"

#include <array>
#include <cstring>

namespace mb2 {

namespace {

// kCrcTables[0] is the classic bytewise table; kCrcTables[s][i] is the CRC
// of byte i followed by s zero bytes, so one 8-byte step is eight lookups
// XORed together instead of eight dependent table steps.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < 8; s++) {
    for (uint32_t i = 0; i < 256; i++) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

uint32_t Crc32(const void *data, size_t len, uint32_t crc) {
  const auto &t = kCrcTables;
  const auto *bytes = static_cast<const uint8_t *>(data);
  uint32_t c = crc ^ 0xffffffffU;
  // Slicing-by-8. The load is little-endian (as in common/serde.h): the
  // low word holds the first four bytes, which the running CRC folds into.
  for (; len >= 8; bytes += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    const uint32_t lo = static_cast<uint32_t>(word) ^ c;
    const uint32_t hi = static_cast<uint32_t>(word >> 32);
    c = t[7][lo & 0xffU] ^ t[6][(lo >> 8) & 0xffU] ^ t[5][(lo >> 16) & 0xffU] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffU] ^ t[2][(hi >> 8) & 0xffU] ^
        t[1][(hi >> 16) & 0xffU] ^ t[0][hi >> 24];
  }
  for (; len > 0; bytes++, len--) {
    c = t[0][(c ^ *bytes) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

}  // namespace mb2
