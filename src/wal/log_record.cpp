#include "wal/log_record.h"

#include "common/serde.h"

namespace mb2 {

namespace {
/// [u8 op][u32 table][u64 slot][u64 txn][u32 nvalues]
constexpr size_t kRecordHeaderBytes = 1 + 4 + 8 + 8 + 4;
}  // namespace

size_t RedoRecordSize(const RedoRecord &record) {
  size_t size = kRecordHeaderBytes;
  for (const auto &v : record.after) size += EncodedSize(v);
  return size;
}

size_t SerializeRedoRecord(const RedoRecord &record, uint64_t txn_id,
                           std::vector<uint8_t> *out) {
  const size_t before = out->size();
  ByteWriter w(out);
  w.Put<uint8_t>(static_cast<uint8_t>(record.op));
  w.Put<uint32_t>(record.table_id);
  w.Put<uint64_t>(record.slot);
  w.Put<uint64_t>(txn_id);
  w.Put<uint32_t>(static_cast<uint32_t>(record.after.size()));
  for (const auto &v : record.after) PutValue(&w, v);
  return out->size() - before;
}

}  // namespace mb2
