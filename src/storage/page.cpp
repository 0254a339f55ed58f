#include "storage/page.h"

#include <cstring>

#include "common/serde.h"

namespace mb2::page {

namespace {

/// [slot u64][num_values u32] before a row's values.
constexpr size_t kRowHeaderBytes = 8 + 4;

template <typename T>
void PutRaw(uint8_t *dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
}

template <typename T>
T GetRaw(const uint8_t *src) {
  T v{};
  std::memcpy(&v, src, sizeof(T));
  return v;
}

/// Decodes one row record; false on an overrun or a corrupt value.
bool GetRowRecord(ByteReader *r, SlotId *slot, Tuple *row) {
  *slot = r->Get<uint64_t>();
  const uint32_t nvals = r->Get<uint32_t>();
  // A value is at least 9 bytes; reject counts the region cannot hold.
  if (!r->ok() || nvals > r->RemainingBytes() / 9 + 1) return false;
  row->clear();
  row->reserve(nvals);
  for (uint32_t i = 0; i < nvals; i++) {
    row->emplace_back();
    if (!GetValue(r, &row->back())) return false;
  }
  return true;
}

/// Reader over the page's used row region; IoError on a bad header.
Result<ByteReader> RowRegion(const Page &p, PageId page_id) {
  const uint32_t used = UsedBytes(p);
  if (used < kPageHeaderSize || used > kPageSize) {
    return Status::IoError("heap page " + std::to_string(page_id) +
                           ": bad used-bytes header");
  }
  return ByteReader(p.bytes + kPageHeaderSize, used - kPageHeaderSize);
}

}  // namespace

void Init(Page *p, PageId id) {
  std::memset(p->bytes, 0, kPageSize);
  PutRaw<uint64_t>(p->bytes + 4, id);
  PutRaw<uint32_t>(p->bytes + 12, 0);
  PutRaw<uint32_t>(p->bytes + 16, static_cast<uint32_t>(kPageHeaderSize));
}

PageId Id(const Page &p) { return GetRaw<uint64_t>(p.bytes + 4); }
uint32_t NumRows(const Page &p) { return GetRaw<uint32_t>(p.bytes + 12); }
uint32_t UsedBytes(const Page &p) { return GetRaw<uint32_t>(p.bytes + 16); }

size_t RowBytes(const Tuple &row) {
  size_t size = kRowHeaderBytes;
  for (const auto &v : row) size += EncodedSize(v);
  return size;
}

bool AppendRow(Page *p, SlotId slot, const Tuple &row) {
  // Encoded into a per-thread scratch buffer so appends reuse one
  // allocation rather than making one per row.
  thread_local std::vector<uint8_t> scratch;
  scratch.clear();
  ByteWriter w(&scratch);
  w.Put<uint64_t>(slot);
  w.Put<uint32_t>(static_cast<uint32_t>(row.size()));
  for (const auto &v : row) PutValue(&w, v);
  const uint32_t used = UsedBytes(*p);
  if (used + scratch.size() > kPageSize) return false;
  std::memcpy(p->bytes + used, scratch.data(), scratch.size());
  PutRaw<uint32_t>(p->bytes + 12, NumRows(*p) + 1);
  PutRaw<uint32_t>(p->bytes + 16, static_cast<uint32_t>(used + scratch.size()));
  return true;
}

Status DecodeRows(const Page &p, PageId page_id, std::vector<HeapRow> *out) {
  auto region = RowRegion(p, page_id);
  if (!region.ok()) return region.status();
  ByteReader &r = region.value();
  const uint32_t nrows = NumRows(p);
  out->reserve(out->size() + nrows);
  for (uint32_t i = 0; i < nrows; i++) {
    HeapRow row;
    if (!GetRowRecord(&r, &row.slot, &row.row)) {
      return Status::IoError("heap page " + std::to_string(page_id) +
                                ": truncated row record " + std::to_string(i));
    }
    row.loc = RowLocation{page_id, i};
    out->push_back(std::move(row));
  }
  return Status::Ok();
}

Status DecodeRowAt(const Page &p, uint32_t index, Tuple *out) {
  if (index >= NumRows(p)) {
    return Status::IoError("heap page " + std::to_string(Id(p)) +
                              ": row index " + std::to_string(index) +
                              " out of range");
  }
  auto region = RowRegion(p, Id(p));
  if (!region.ok()) return region.status();
  ByteReader &r = region.value();
  SlotId slot = 0;
  Tuple row;
  for (uint32_t i = 0; i <= index; i++) {
    if (!GetRowRecord(&r, &slot, &row)) {
      return Status::IoError("heap page " + std::to_string(Id(p)) +
                                ": truncated row record " + std::to_string(i));
    }
  }
  *out = std::move(row);
  return Status::Ok();
}

}  // namespace mb2::page
