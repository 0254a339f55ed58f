#pragma once

/// \file page.h
/// On-disk page format for the disk-backed table heap (DESIGN.md §4i).
/// Pages are 4 KiB, checksummed, and append-only within: committed and
/// uncommitted row payloads are serialized into the page in arrival order,
/// each prefixed with the tuple slot it belongs to. Visibility is NOT a page
/// concern — the in-memory MVCC version chains decide which heap row (if
/// any) a reader sees; the page only stores payload bytes.
///
/// Layout:
///   [0..4)    crc32 over bytes [4..kPageSize)  (set/verified by DiskManager)
///   [4..12)   page id (catches misdirected I/O)
///   [12..16)  row count
///   [16..20)  used bytes (next append offset)
///   [20..)    rows: [slot u64][num_values u32][values...]
/// Values use the common/serde Value encoding, as WAL records and SQL
/// result rows do.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/version.h"

namespace mb2 {

constexpr size_t kPageSize = 4096;
constexpr size_t kPageHeaderSize = 20;
/// Payload capacity of one page.
constexpr size_t kPagePayloadBytes = kPageSize - kPageHeaderSize;

struct Page {
  uint8_t bytes[kPageSize];
};

/// One decoded heap row: the tuple slot it belongs to, its location (so the
/// scanner can match it against the slot's visible version), and the payload.
struct HeapRow {
  SlotId slot = 0;
  RowLocation loc;
  Tuple row;
};

namespace page {

/// Zero-initializes a page and stamps its header.
void Init(Page *p, PageId id);

PageId Id(const Page &p);
uint32_t NumRows(const Page &p);
uint32_t UsedBytes(const Page &p);

/// Serialized size of one row record (slot prefix included).
size_t RowBytes(const Tuple &row);

/// Appends a row record; returns false when the page lacks space (the
/// caller moves to a fresh page). The row index within the page is
/// NumRows(p) before the call.
bool AppendRow(Page *p, SlotId slot, const Tuple &row);

/// Decodes every row record in the page. `page_id` fills each HeapRow's
/// location. IoError on structural corruption (a record overrunning the
/// used region, a bad value tag) — checksum validation is the DiskManager's
/// job.
Status DecodeRows(const Page &p, PageId page_id, std::vector<HeapRow> *out);

/// Decodes just the row at `index`; errors when out of range or corrupt.
Status DecodeRowAt(const Page &p, uint32_t index, Tuple *out);

}  // namespace page

}  // namespace mb2
