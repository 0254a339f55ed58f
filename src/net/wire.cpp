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

// --- Requests ---------------------------------------------------------------

std::vector<uint8_t> EncodeSqlRequest(const std::string &sql) {
  ByteWriter w;
  w.PutString(sql);
  return w.Take();
}

bool DecodeSqlRequest(const std::vector<uint8_t> &payload, std::string *sql) {
  ByteReader r(payload.data(), payload.size());
  *sql = r.GetString();
  return r.ok() && r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodePredictRequest(const std::vector<TranslatedOu> &ous) {
  ByteWriter w;
  w.Put<uint32_t>(static_cast<uint32_t>(ous.size()));
  for (const TranslatedOu &ou : ous) {
    w.Put<uint8_t>(static_cast<uint8_t>(ou.type));
    w.PutDoubles(ou.features);
  }
  return w.Take();
}

bool DecodePredictRequest(const std::vector<uint8_t> &payload,
                          std::vector<TranslatedOu> *ous) {
  ByteReader r(payload.data(), payload.size());
  const uint32_t n = r.Get<uint32_t>();
  // Each OU costs at least 9 bytes (type + empty-vector length); a count
  // beyond that is corrupt — reject before reserving.
  if (!r.ok() || static_cast<int64_t>(n) * 9 > r.RemainingBytes()) return false;
  ous->clear();
  ous->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    TranslatedOu ou;
    const uint8_t type = r.Get<uint8_t>();
    if (type >= static_cast<uint8_t>(OuType::kNumOuTypes)) return false;
    ou.type = static_cast<OuType>(type);
    ou.features = r.GetDoubles();
    if (!r.ok()) return false;
    ous->push_back(std::move(ou));
  }
  return r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodeSleepRequest(uint32_t millis) {
  ByteWriter w;
  w.Put<uint32_t>(millis);
  return w.Take();
}

bool DecodeSleepRequest(const std::vector<uint8_t> &payload, uint32_t *millis) {
  ByteReader r(payload.data(), payload.size());
  *millis = r.Get<uint32_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

// --- Responses --------------------------------------------------------------

static void PutHead(ByteWriter *w, WireCode code, const std::string &message) {
  w->Put<uint16_t>(static_cast<uint16_t>(code));
  w->PutString(message);
}

std::vector<uint8_t> EncodeStatusResponse(WireCode code,
                                          const std::string &message) {
  ByteWriter w;
  PutHead(&w, code, message);
  return w.Take();
}

std::vector<uint8_t> EncodeSqlResponse(const SqlResponseBody &body) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.Put<double>(body.elapsed_us);
  w.Put<uint8_t>(body.aborted ? 1 : 0);
  w.Put<uint64_t>(body.rows.size());
  for (const Tuple &row : body.rows) {
    w.Put<uint16_t>(static_cast<uint16_t>(row.size()));
    for (const Value &v : row) PutValue(&w, v);
  }
  return w.Take();
}

std::vector<uint8_t> EncodePredictResponse(const PredictResponseBody &body) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.Put<uint32_t>(body.degraded_ous);
  w.Put<uint64_t>(body.per_ou.size());
  // Labels go over the wire as raw 8-byte doubles, so a remote prediction is
  // bit-identical to the in-process result (an acceptance criterion).
  for (const Labels &labels : body.per_ou) {
    w.PutRaw(labels.data(), labels.size() * sizeof(double));
  }
  return w.Take();
}

std::vector<uint8_t> EncodeMetricsResponse(const std::string &json) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.PutString(json);
  return w.Take();
}

bool DecodeResponseHead(const std::vector<uint8_t> &payload, WireCode *code,
                        std::string *message, size_t *body_offset) {
  ByteReader r(payload.data(), payload.size());
  const uint16_t raw = r.Get<uint16_t>();
  *message = r.GetString();
  if (!r.ok() || raw > static_cast<uint16_t>(WireCode::kNotPrimary)) {
    return false;
  }
  *code = static_cast<WireCode>(raw);
  *body_offset = payload.size() - static_cast<size_t>(r.RemainingBytes());
  return true;
}

bool DecodeSqlResponseBody(const std::vector<uint8_t> &payload, size_t offset,
                           SqlResponseBody *out) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  out->elapsed_us = r.Get<double>();
  out->aborted = r.Get<uint8_t>() != 0;
  const uint64_t n_rows = r.Get<uint64_t>();
  // Each row costs at least its 2-byte column count.
  if (!r.ok() || n_rows > static_cast<uint64_t>(r.RemainingBytes()) / 2) {
    return false;
  }
  out->rows.clear();
  out->rows.reserve(n_rows);
  for (uint64_t i = 0; i < n_rows; i++) {
    const uint16_t n_cols = r.Get<uint16_t>();
    Tuple &row = out->rows.emplace_back();
    row.resize(n_cols);
    for (Value &v : row) {
      if (!GetValue(&r, &v)) return false;
    }
  }
  return r.ok() && r.RemainingBytes() == 0;
}

bool DecodePredictResponseBody(const std::vector<uint8_t> &payload,
                               size_t offset, PredictResponseBody *out) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  out->degraded_ous = r.Get<uint32_t>();
  const uint64_t n = r.Get<uint64_t>();
  constexpr int64_t kLabelBytes = kNumLabels * sizeof(double);
  if (!r.ok() || static_cast<int64_t>(n) * kLabelBytes != r.RemainingBytes()) {
    return false;
  }
  out->per_ou.resize(n);
  for (uint64_t i = 0; i < n; i++) {
    for (size_t j = 0; j < kNumLabels; j++) out->per_ou[i][j] = r.Get<double>();
  }
  return r.ok();
}

bool DecodeMetricsResponseBody(const std::vector<uint8_t> &payload,
                               size_t offset, std::string *json) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  *json = r.GetString();
  return r.ok() && r.RemainingBytes() == 0;
}

// --- Replication ------------------------------------------------------------

std::vector<uint8_t> EncodeReplSubscribeRequest(
    const ReplSubscribeRequest &req) {
  ByteWriter w;
  w.PutString(req.replica_id);
  w.Put<uint64_t>(req.start_offset);
  return w.Take();
}

bool DecodeReplSubscribeRequest(const std::vector<uint8_t> &payload,
                                ReplSubscribeRequest *req) {
  ByteReader r(payload.data(), payload.size());
  req->replica_id = r.GetString();
  req->start_offset = r.Get<uint64_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodeReplSubscribeResponse(
    const ReplSubscribeResponseBody &body) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.Put<uint64_t>(body.durable_tip);
  w.Put<uint64_t>(body.epoch);
  return w.Take();
}

bool DecodeReplSubscribeResponseBody(const std::vector<uint8_t> &payload,
                                     size_t offset,
                                     ReplSubscribeResponseBody *out) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  out->durable_tip = r.Get<uint64_t>();
  out->epoch = r.Get<uint64_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodeReplFetchRequest(const ReplFetchRequest &req) {
  ByteWriter w;
  w.PutString(req.replica_id);
  w.Put<uint64_t>(req.offset);
  w.Put<uint32_t>(req.max_bytes);
  w.Put<uint64_t>(req.epoch);
  return w.Take();
}

bool DecodeReplFetchRequest(const std::vector<uint8_t> &payload,
                            ReplFetchRequest *req) {
  ByteReader r(payload.data(), payload.size());
  req->replica_id = r.GetString();
  req->offset = r.Get<uint64_t>();
  req->max_bytes = r.Get<uint32_t>();
  req->epoch = r.Get<uint64_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodeReplLogBatchResponse(const ReplLogBatchBody &body) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.Put<uint64_t>(body.offset);
  w.Put<uint64_t>(body.durable_tip);
  w.Put<uint64_t>(body.epoch);
  w.Put<uint32_t>(body.batch_crc);
  w.Put<uint32_t>(static_cast<uint32_t>(body.data.size()));
  w.PutRaw(body.data.data(), body.data.size());
  return w.Take();
}

bool DecodeReplLogBatchResponseBody(const std::vector<uint8_t> &payload,
                                    size_t offset, ReplLogBatchBody *out) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  out->offset = r.Get<uint64_t>();
  out->durable_tip = r.Get<uint64_t>();
  out->epoch = r.Get<uint64_t>();
  out->batch_crc = r.Get<uint32_t>();
  const uint32_t len = r.Get<uint32_t>();
  if (!r.ok() || static_cast<int64_t>(len) != r.RemainingBytes()) return false;
  out->data.resize(len);
  r.GetRaw(out->data.data(), len);
  return r.ok();
}

std::vector<uint8_t> EncodeReplAckRequest(const ReplAckRequest &req) {
  ByteWriter w;
  w.PutString(req.replica_id);
  w.Put<uint64_t>(req.applied_offset);
  w.Put<uint64_t>(req.applied_records);
  return w.Take();
}

bool DecodeReplAckRequest(const std::vector<uint8_t> &payload,
                          ReplAckRequest *req) {
  ByteReader r(payload.data(), payload.size());
  req->replica_id = r.GetString();
  req->applied_offset = r.Get<uint64_t>();
  req->applied_records = r.Get<uint64_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodeHealthResponse(const HealthInfo &info) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.Put<uint8_t>(info.role);
  w.Put<uint64_t>(info.epoch);
  w.Put<uint64_t>(info.durable_tip);
  w.Put<uint64_t>(info.applied_offset);
  return w.Take();
}

bool DecodeHealthResponseBody(const std::vector<uint8_t> &payload,
                              size_t offset, HealthInfo *out) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  out->role = r.Get<uint8_t>();
  out->epoch = r.Get<uint64_t>();
  out->durable_tip = r.Get<uint64_t>();
  out->applied_offset = r.Get<uint64_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

std::vector<uint8_t> EncodeCtrlStatusResponse(const CtrlStatusBody &body) {
  ByteWriter w;
  PutHead(&w, WireCode::kOk, "");
  w.Put<uint8_t>(body.attached ? 1 : 0);
  w.Put<uint8_t>(body.running ? 1 : 0);
  w.Put<uint64_t>(body.status.ticks);
  w.Put<uint64_t>(body.status.actions_applied);
  w.Put<uint64_t>(body.status.actions_rolled_back);
  w.Put<uint64_t>(body.status.rollback_failures);
  w.Put<uint64_t>(body.status.ous_retrained);
  w.Put<uint64_t>(body.status.templates_tracked);
  w.Put<uint64_t>(body.status.queries_observed);
  w.Put<int64_t>(body.status.last_action_us);
  w.Put<uint8_t>(body.status.pending_verification ? 1 : 0);
  w.Put<uint32_t>(static_cast<uint32_t>(body.status.decisions.size()));
  for (const ctrl::Decision &d : body.status.decisions) {
    w.Put<int64_t>(d.time_us);
    w.PutString(d.action);
    w.PutString(d.kind);
    w.Put<double>(d.predicted_baseline_us);
    w.Put<double>(d.predicted_benefit_us);
    w.Put<double>(d.observed_before_us);
    w.Put<double>(d.observed_after_us);
  }
  w.Put<uint32_t>(static_cast<uint32_t>(body.knob_changes.size()));
  for (const KnobChange &c : body.knob_changes) {
    w.PutString(c.name);
    w.Put<double>(c.old_value);
    w.Put<double>(c.new_value);
    w.PutString(c.source);
    w.Put<int64_t>(c.time_us);
  }
  w.Put<uint64_t>(body.knob_changes_total);
  return w.Take();
}

bool DecodeCtrlStatusResponseBody(const std::vector<uint8_t> &payload,
                                  size_t offset, CtrlStatusBody *out) {
  ByteReader r(payload.data() + offset, payload.size() - offset);
  out->attached = r.Get<uint8_t>() != 0;
  out->running = r.Get<uint8_t>() != 0;
  out->status.ticks = r.Get<uint64_t>();
  out->status.actions_applied = r.Get<uint64_t>();
  out->status.actions_rolled_back = r.Get<uint64_t>();
  out->status.rollback_failures = r.Get<uint64_t>();
  out->status.ous_retrained = r.Get<uint64_t>();
  out->status.templates_tracked = r.Get<uint64_t>();
  out->status.queries_observed = r.Get<uint64_t>();
  out->status.last_action_us = r.Get<int64_t>();
  out->status.pending_verification = r.Get<uint8_t>() != 0;
  const uint32_t num_decisions = r.Get<uint32_t>();
  if (!r.ok() || num_decisions > (1u << 20)) return false;
  out->status.decisions.clear();
  out->status.decisions.reserve(num_decisions);
  for (uint32_t i = 0; i < num_decisions && r.ok(); i++) {
    ctrl::Decision d;
    d.time_us = r.Get<int64_t>();
    d.action = r.GetString();
    d.kind = r.GetString();
    d.predicted_baseline_us = r.Get<double>();
    d.predicted_benefit_us = r.Get<double>();
    d.observed_before_us = r.Get<double>();
    d.observed_after_us = r.Get<double>();
    out->status.decisions.push_back(std::move(d));
  }
  const uint32_t num_changes = r.Get<uint32_t>();
  if (!r.ok() || num_changes > (1u << 20)) return false;
  out->knob_changes.clear();
  out->knob_changes.reserve(num_changes);
  for (uint32_t i = 0; i < num_changes && r.ok(); i++) {
    KnobChange c;
    c.name = r.GetString();
    c.old_value = r.Get<double>();
    c.new_value = r.Get<double>();
    c.source = r.GetString();
    c.time_us = r.Get<int64_t>();
    out->knob_changes.push_back(std::move(c));
  }
  out->knob_changes_total = r.Get<uint64_t>();
  return r.ok() && r.RemainingBytes() == 0;
}

}  // namespace mb2::net
