#pragma once

/// \file serde.h
/// The engine's one byte layout. ByteWriter appends scalars, length-prefixed
/// strings and double vectors to a byte buffer; ByteReader reads them back,
/// bounds-checking every Get. On top of the pair sits the single Value codec
/// (PutValue/GetValue) used by WAL redo records, heap pages, SQL result rows
/// on the wire and the OUTPUT operator; model files are built with the same
/// pair. Little-endian host assumption (x86-64 / aarch64 targets).

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/value.h"

namespace mb2 {

/// Longest string a reader accepts; a longer length prefix is corruption.
/// This is also the varchar cap of the Value codec.
inline constexpr uint32_t kMaxStringBytes = 1u << 24;
/// Longest double vector a reader accepts.
inline constexpr uint64_t kMaxDoubles = 1ull << 27;

/// Appends to a byte buffer; never fails. The buffer is either owned (read it
/// back with bytes()/Take()) or a caller's vector, so a hot path can reuse
/// one allocation across many encodes.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends to `*out`, which must outlive the writer.
  explicit ByteWriter(std::vector<uint8_t> *out) : out_(out) {}
  MB2_DISALLOW_COPY_AND_MOVE(ByteWriter);

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutRaw(&value, sizeof(T));
  }

  void PutString(const std::string &s) {
    Put<uint32_t>(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutDoubles(const std::vector<double> &v) {
    Put<uint64_t>(v.size());
    PutRaw(v.data(), v.size() * sizeof(double));
  }

  void PutRaw(const void *data, size_t len) {
    const size_t off = out_->size();
    out_->resize(off + len);
    if (len > 0) std::memcpy(out_->data() + off, data, len);
  }

  size_t size() const { return out_->size(); }
  const std::vector<uint8_t> &bytes() const { return *out_; }
  std::vector<uint8_t> Take() { return std::move(*out_); }

 private:
  std::vector<uint8_t> owned_;
  std::vector<uint8_t> *out_ = &owned_;
};

/// Non-owning reader over a byte range. A Get past the end marks the reader
/// truncated; a decoder that finds the bytes inconsistent marks it corrupt.
/// Either way ok() turns false and every later Get returns a zero value, so
/// decoders can read a whole structure and check ok() once.
class ByteReader {
 public:
  ByteReader(const void *data, size_t len)
      : data_(static_cast<const uint8_t *>(data)), size_(len) {}

  bool ok() const { return !failed_; }
  /// True when the failure is structural (a bad tag, an absurd length)
  /// rather than the bytes ending early. A stream consumer such as the WAL
  /// applier waits for more bytes after a truncation, never after this.
  bool corrupt() const { return corrupt_; }
  void MarkCorrupt() { failed_ = corrupt_ = true; }

  int64_t RemainingBytes() const {
    return static_cast<int64_t>(size_) - static_cast<int64_t>(pos_);
  }

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    GetRaw(&value, sizeof(T));
    return value;
  }

  std::string GetString() {
    const uint32_t len = Get<uint32_t>();
    if (ok() && len > kMaxStringBytes) MarkCorrupt();
    if (!Has(len)) return {};
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  std::vector<double> GetDoubles() {
    const uint64_t n = Get<uint64_t>();
    if (ok() && n > kMaxDoubles) MarkCorrupt();
    // A count beyond what the buffer still holds fails before allocating.
    if (!Has(n * sizeof(double))) return {};
    std::vector<double> v(n);
    GetRaw(v.data(), n * sizeof(double));
    return v;
  }

  /// Copies `len` raw bytes into `out`. The caller supplies the length (from
  /// its own validated prefix); truncation fails cleanly like every Get.
  bool GetRaw(void *out, size_t len) {
    if (!Has(len)) return false;
    if (len > 0) std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  /// True when `len` more bytes can be read; marks truncation otherwise.
  bool Has(uint64_t len) {
    if (failed_ || len > size_ - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t *data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;   ///< truncated or corrupt
  bool corrupt_ = false;
};

// --- Value codec ---------------------------------------------------------------
// The one byte layout of a Value: a 1-byte TypeId tag, then the 8-byte
// integer or double, or a u32 length and the varchar's bytes.

/// Bytes PutValue appends for `v`.
inline size_t EncodedSize(const Value &v) {
  return v.type() == TypeId::kVarchar ? 1 + 4 + v.AsVarchar().size() : 1 + 8;
}

inline void PutValue(ByteWriter *w, const Value &v) {
  w->Put<uint8_t>(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kInteger: w->Put<int64_t>(v.AsInt()); break;
    case TypeId::kDouble: w->Put<double>(v.AsDouble()); break;
    case TypeId::kVarchar: w->PutString(v.AsVarchar()); break;
  }
}

/// Decodes one Value. False when the bytes end early (the reader is then
/// truncated) or are corrupt: an unknown type tag or a varchar longer than
/// kMaxStringBytes (the reader is then corrupt()).
inline bool GetValue(ByteReader *r, Value *out) {
  const uint8_t tag = r->Get<uint8_t>();
  if (!r->ok()) return false;
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kInteger: *out = Value::Integer(r->Get<int64_t>()); break;
    case TypeId::kDouble: *out = Value::Double(r->Get<double>()); break;
    case TypeId::kVarchar: *out = Value::Varchar(r->GetString()); break;
    default: r->MarkCorrupt(); return false;
  }
  return r->ok();
}

}  // namespace mb2
