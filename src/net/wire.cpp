#include "net/wire.h"

#include <cstring>

#include "common/checksum.h"

namespace mb2::net {

const OpcodeInfo &LookupOpcode(Opcode op) {
  for (const OpcodeInfo &info : kOpcodeTable) {
    if (info.op == op) return info;
  }
  return kUnknownOpcode;
}

Status WireCodeToStatus(WireCode code, const std::string &message) {
  switch (code) {
    case WireCode::kOk: return Status::Ok();
    case WireCode::kBadRequest: return Status::InvalidArgument(message);
    case WireCode::kNotFound: return Status::NotFound(message);
    case WireCode::kAborted: return Status::Aborted(message);
    case WireCode::kServerBusy: return Status::Aborted("SERVER_BUSY: " + message);
    case WireCode::kDeadlineExceeded:
      return Status::Aborted("DEADLINE_EXCEEDED: " + message);
    case WireCode::kShuttingDown:
      return Status::Aborted("SHUTTING_DOWN: " + message);
    case WireCode::kInternal: return Status::Internal(message);
    case WireCode::kNotPrimary: return Status::Unavailable(message);
  }
  return Status::Internal("unknown wire code: " + message);
}

WireCode StatusToWireCode(const Status &status) {
  switch (status.code()) {
    case ErrorCode::kOk: return WireCode::kOk;
    case ErrorCode::kNotFound: return WireCode::kNotFound;
    case ErrorCode::kAborted: return WireCode::kAborted;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kAlreadyExists:
    case ErrorCode::kNotSupported: return WireCode::kBadRequest;
    case ErrorCode::kIoError:
    case ErrorCode::kInternal: return WireCode::kInternal;
    case ErrorCode::kUnavailable: return WireCode::kNotPrimary;
  }
  return WireCode::kInternal;
}

std::vector<uint8_t> EncodeFrame(uint16_t opcode, uint64_t request_id,
                                 const std::vector<uint8_t> &payload) {
  ByteWriter w;
  w.Put<uint32_t>(kWireMagic);
  w.Put<uint16_t>(kWireVersion);
  w.Put<uint16_t>(opcode);
  w.Put<uint64_t>(request_id);
  w.Put<uint32_t>(static_cast<uint32_t>(payload.size()));
  w.Put<uint32_t>(Crc32(payload.data(), payload.size()));
  w.PutRaw(payload.data(), payload.size());
  return w.Take();
}

void FrameDecoder::Feed(const void *data, size_t len) {
  // Compact lazily: once everything buffered has been parsed, restart the
  // buffer instead of growing it forever on a long-lived connection.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto *bytes = static_cast<const uint8_t *>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + len);
}

FrameDecoder::Outcome FrameDecoder::Next(Frame *out) {
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return Outcome::kNeedMore;
  const uint8_t *head = buffer_.data() + consumed_;

  uint32_t magic;
  uint16_t version, opcode;
  uint64_t request_id;
  uint32_t payload_len, payload_crc;
  std::memcpy(&magic, head, 4);
  std::memcpy(&version, head + 4, 2);
  std::memcpy(&opcode, head + 6, 2);
  std::memcpy(&request_id, head + 8, 8);
  std::memcpy(&payload_len, head + 16, 4);
  std::memcpy(&payload_crc, head + 20, 4);

  if (magic != kWireMagic) return Outcome::kBadMagic;
  if (version != kWireVersion) return Outcome::kBadVersion;
  // Header fields are trustworthy from here on; expose them even on the
  // error outcomes so the server can address an error response.
  out->opcode = opcode;
  out->request_id = request_id;
  out->payload.clear();
  if (payload_len > max_payload_) return Outcome::kOversized;
  if (avail < kHeaderBytes + payload_len) return Outcome::kNeedMore;

  const uint8_t *body = head + kHeaderBytes;
  consumed_ += kHeaderBytes + payload_len;
  if (Crc32(body, payload_len) != payload_crc) {
    out->payload.clear();
    return Outcome::kBadCrc;
  }
  out->payload.assign(body, body + payload_len);
  return Outcome::kFrame;
}

bool DecodeResponseHead(const std::vector<uint8_t> &payload, WireCode *code,
                        std::string *message, size_t *body_offset) {
  FieldReader io(payload.data(), payload.size());
  ResponseHead head;
  io(head);
  if (!io.ok()) return false;
  *code = head.code;
  *message = std::move(head.message);
  *body_offset = payload.size() - static_cast<size_t>(io.RemainingBytes());
  return true;
}

}  // namespace mb2::net
