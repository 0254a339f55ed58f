#pragma once

/// \file checksum.h
/// CRC32 (IEEE 802.3 polynomial, the zlib/gzip variant) for detecting
/// corrupt or truncated bytes: model files, wire frames, heap pages and
/// shipped WAL batches. Table-driven, one pass.

#include <cstddef>
#include <cstdint>

namespace mb2 {

/// Incremental CRC32: pass the previous return value as `crc` to continue a
/// running checksum (start with 0).
uint32_t Crc32(const void *data, size_t len, uint32_t crc = 0);

}  // namespace mb2
