#pragma once

/// \file checksum.h
/// CRC32 (IEEE 802.3 polynomial, the zlib/gzip variant) for detecting
/// corrupt or truncated bytes: model files, wire frames, heap pages and
/// shipped WAL batches. One pass, slicing-by-8: eight bytes per step through
/// eight 256-entry tables, then a bytewise tail; every input and every
/// chained call gives the same value as the bytewise table walk. Assumes a
/// little-endian host, as common/serde.h does.

#include <cstddef>
#include <cstdint>

namespace mb2 {

/// Incremental CRC32: pass the previous return value as `crc` to continue a
/// running checksum (start with 0).
uint32_t Crc32(const void *data, size_t len, uint32_t crc = 0);

}  // namespace mb2
