#include "common/checksum.h"

#include <array>

namespace mb2 {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void *data, size_t len, uint32_t crc) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  const auto *bytes = static_cast<const uint8_t *>(data);
  uint32_t c = crc ^ 0xffffffffU;
  for (size_t i = 0; i < len; i++) {
    c = table[(c ^ bytes[i]) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

}  // namespace mb2
