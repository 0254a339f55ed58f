#pragma once

/// \file log_record.h
/// Binary serialization of redo records into log buffers. Record format:
/// [u8 op][u32 table][u64 slot][u64 txn][u32 nvalues]{values...}, each value
/// in the common/serde Value encoding.

#include <cstdint>
#include <vector>

#include "txn/transaction.h"

namespace mb2 {

/// A fixed-capacity log buffer filled by serialization and drained by the
/// flusher.
class LogBuffer {
 public:
  static constexpr size_t kCapacity = 1 << 16;  // 64 KB

  bool HasSpace(size_t bytes) const { return data_.size() + bytes <= kCapacity; }
  void Append(const uint8_t *bytes, size_t len) {
    data_.insert(data_.end(), bytes, bytes + len);
  }
  const std::vector<uint8_t> &data() const { return data_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  void Reset() { data_.clear(); }
  uint32_t num_records = 0;

 private:
  std::vector<uint8_t> data_;
};

/// Appends one encoded redo record to *out; returns its size in bytes.
size_t SerializeRedoRecord(const RedoRecord &record, uint64_t txn_id,
                           std::vector<uint8_t> *out);

/// Size the record will occupy once encoded (without encoding it).
size_t RedoRecordSize(const RedoRecord &record);

}  // namespace mb2
