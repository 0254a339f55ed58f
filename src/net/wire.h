#pragma once

/// \file wire.h
/// The MB2 framed wire protocol. Every message — request or response — is
/// one frame:
///
///   offset  size  field
///        0     4  magic        "MB2P" (0x5032424d little-endian)
///        4     2  version      kWireVersion
///        6     2  opcode       Opcode; responses set kResponseBit
///        8     8  request_id   echoed verbatim in the response
///       16     4  payload_len  bytes following the header
///       20     4  payload_crc  CRC32 (common/checksum) of the payload
///       24     .  payload      opcode-specific body (common/serde ByteWriter)
///
/// All integers are little-endian host layout (the project-wide assumption
/// in common/serde.h). Response payloads always begin with a uint16 WireCode
/// plus a length-prefixed error message; the opcode-specific body follows
/// only when the code is kOk.
///
/// Each payload's layout is written once, as a Fields(io, message) list
/// next to its message type below; the one Encode and the one Decode walk
/// that list, so a new payload costs one field list.
///
/// Malformed input never crashes the peer: FrameDecoder rejects bad
/// magic/version (framing lost — the connection must close), oversized
/// length prefixes, and CRC mismatches (reported per-frame so the server
/// can answer kBadRequest before closing). Decode rejects truncation,
/// trailing bytes, an unknown OuType or WireCode, strings and double
/// vectors beyond their caps, and a repeated field's count that the
/// remaining bytes cannot hold, before allocating for it.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "catalog/settings.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/value.h"
#include "ctrl/controller.h"
#include "metrics/resource_tracker.h"
#include "modeling/ou_translator.h"

namespace mb2::net {

inline constexpr uint32_t kWireMagic = 0x5032424du;  // "MB2P"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kHeaderBytes = 24;
/// Default ceiling on a frame payload; decoders reject larger length
/// prefixes before buffering anything.
inline constexpr uint32_t kDefaultMaxPayloadBytes = 16u << 20;

/// Request opcodes. kSleep exists for tests and benches: it occupies a
/// worker for a bounded time, which is how deadline-expiry and load-shed
/// paths are exercised deterministically.
enum class Opcode : uint16_t {
  kPing = 1,
  kSqlQuery = 2,
  kPredictOus = 3,
  kGetMetrics = 4,
  kSleep = 5,
  // Replication (src/repl). The follower drives the protocol: SUBSCRIBE
  // registers it and learns the durable tip, LOG_BATCH fetches raw WAL bytes
  // from an offset, ACK reports the applied tip back for lag accounting.
  // HEALTH is answerable by any node and carries its role/epoch, which is
  // what failover-aware clients probe to find the current primary.
  kReplSubscribe = 6,
  kReplLogBatch = 7,
  kReplAck = 8,
  kHealth = 9,
  // Autonomous controller introspection (src/ctrl): counters, the bounded
  // decision log with predicted-vs-actual latencies, and the knob-change
  // audit trail. The request has no payload.
  kCtrlStatus = 10,
};
inline constexpr uint16_t kResponseBit = 0x8000;

/// Per-opcode metadata, one row per Opcode: the name used in metric labels
/// and logs, and the trace-span name (a literal, as ObsSpan requires).
struct OpcodeInfo {
  Opcode op;
  const char *name;
  const char *span;
};
inline constexpr OpcodeInfo kOpcodeTable[] = {
    {Opcode::kPing, "PING", "net.ping"},
    {Opcode::kSqlQuery, "SQL_QUERY", "net.sql_query"},
    {Opcode::kPredictOus, "PREDICT_OUS", "net.predict_ous"},
    {Opcode::kGetMetrics, "GET_METRICS", "net.get_metrics"},
    {Opcode::kSleep, "SLEEP", "net.sleep"},
    {Opcode::kReplSubscribe, "REPL_SUBSCRIBE", "net.repl_subscribe"},
    {Opcode::kReplLogBatch, "REPL_LOG_BATCH", "net.repl_log_batch"},
    {Opcode::kReplAck, "REPL_ACK", "net.repl_ack"},
    {Opcode::kHealth, "HEALTH", "net.health"},
    {Opcode::kCtrlStatus, "CTRL_STATUS", "net.ctrl_status"},
};
/// Row for an opcode outside the table (a malformed or newer request).
inline constexpr OpcodeInfo kUnknownOpcode = {Opcode{0}, "UNKNOWN",
                                              "net.unknown"};

/// The table row of `op`, or kUnknownOpcode.
const OpcodeInfo &LookupOpcode(Opcode op);
inline const char *OpcodeName(Opcode op) { return LookupOpcode(op).name; }

/// Status of a response, mapped to/from mb2::Status at the client boundary.
enum class WireCode : uint16_t {
  kOk = 0,
  kBadRequest = 1,        ///< undecodable payload, unknown opcode, SQL error
  kNotFound = 2,          ///< e.g. unknown table / knob
  kAborted = 3,           ///< transaction conflict
  kServerBusy = 4,        ///< admission queue full (load shed)
  kDeadlineExceeded = 5,  ///< request expired before a worker ran it
  kShuttingDown = 6,      ///< server draining; no new work accepted
  kInternal = 7,
  kNotPrimary = 8,        ///< node cannot serve this by role (e.g. a write
                          ///< sent to a read-only replica); re-resolve the
                          ///< primary rather than retrying here
};

/// WireCode -> typed client-facing Status (kOk -> Status::Ok()).
Status WireCodeToStatus(WireCode code, const std::string &message);
/// Engine Status -> response WireCode (never returns kOk for an error).
WireCode StatusToWireCode(const Status &status);

/// One decoded frame.
struct Frame {
  uint16_t opcode = 0;  ///< raw opcode, response bit included
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;

  bool IsResponse() const { return (opcode & kResponseBit) != 0; }
  Opcode Op() const { return static_cast<Opcode>(opcode & ~kResponseBit); }
};

/// Serializes a complete frame (header + CRC32 + payload).
std::vector<uint8_t> EncodeFrame(uint16_t opcode, uint64_t request_id,
                                 const std::vector<uint8_t> &payload);

/// Incremental frame parser over a byte stream. Feed() appends raw socket
/// bytes; Next() yields complete frames until the buffer runs dry.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_(max_payload_bytes) {}

  enum class Outcome {
    kNeedMore,   ///< buffer holds no complete frame yet
    kFrame,      ///< *out filled; call Next() again
    kBadMagic,   ///< stream is not speaking this protocol; close it
    kBadVersion,
    kOversized,  ///< length prefix exceeds the payload ceiling
    kBadCrc,     ///< frame parsed but payload corrupt (header in *out)
  };

  void Feed(const void *data, size_t len);
  /// On kBadCrc the frame's opcode/request_id are valid in *out (the
  /// payload is dropped) so the server can address an error response;
  /// the stream position stays consistent and parsing may continue.
  Outcome Next(Frame *out);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  uint32_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  ///< bytes of buffer_ already parsed away
};

// --- Payloads ---------------------------------------------------------------
// Every payload is a message type, and one Fields(io, message) overload lists
// its fields once, in wire order. Encode walks that list with a FieldWriter
// and Decode with a FieldReader, so each layout is written down exactly once.
// A request is its message: std::string (the SQL text) for SQL_QUERY,
// uint32_t (milliseconds) for SLEEP, the OU vector for PREDICT_OUS, a struct
// for each REPL_* request; PING, GET_METRICS, HEALTH and CTRL_STATUS read no
// request payload. A response is a ResponseHead, then the opcode's body when
// the code is kOk: Encode(ResponseHead{}, body).

/// A repeated field: a Count-wide element count, then the elements.
/// kMinBytes is the smallest wire size of one element, so the reader rejects
/// a count the remaining bytes cannot hold before allocating anything.
template <typename Count, size_t kMinBytes, typename T>
struct Repeated {
  std::vector<T> &items;
};
template <typename Count, size_t kMinBytes, typename T>
Repeated<Count, kMinBytes, T> Repeat(std::vector<T> &items) {
  return {items};
}

/// Appends fields to a payload. Integers and doubles go as their bytes, bool
/// as one byte, OuType as one byte and WireCode as two, strings and double
/// vectors with their length first (common/serde.h), a Value in its one
/// codec, Labels as nine raw doubles, so a remote prediction is bit-identical
/// to the in-process one. Any other type is a message: its Fields list.
class FieldWriter {
 public:
  explicit FieldWriter(ByteWriter *out) : w_(out) {}

  template <typename... Fs>
  void operator()(const Fs &...fields) {
    (Put(fields), ...);
  }

 private:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void Put(const T &v) {
    w_->Put<T>(v);
  }
  void Put(bool b) { w_->Put<uint8_t>(b ? 1 : 0); }
  void Put(OuType type) { w_->Put<uint8_t>(static_cast<uint8_t>(type)); }
  void Put(WireCode code) { w_->Put<uint16_t>(static_cast<uint16_t>(code)); }
  void Put(const std::string &s) { w_->PutString(s); }
  void Put(const std::vector<double> &v) { w_->PutDoubles(v); }
  void Put(const Value &v) { PutValue(w_, v); }
  void Put(const Labels &labels) { w_->PutRaw(labels.data(), sizeof(Labels)); }
  template <typename Count, size_t kMinBytes, typename T>
  void Put(const Repeated<Count, kMinBytes, T> &field) {
    w_->Put<Count>(static_cast<Count>(field.items.size()));
    if constexpr (std::is_arithmetic_v<T>) {
      w_->PutRaw(field.items.data(), field.items.size() * sizeof(T));
    } else {
      for (const T &item : field.items) Put(item);
    }
  }
  /// A message: Fields takes it by non-const reference, so that one list
  /// serves both directions; the writer only reads it.
  template <typename M>
  void Put(const M &message) {
    Fields(*this, const_cast<M &>(message));
  }

  ByteWriter *w_;
};

/// Reads fields in the layout FieldWriter writes, with every check on the
/// way: a truncated field, an OuType or WireCode out of range, a string or
/// double vector beyond its cap, and a repeated count the remaining bytes
/// cannot hold each fail the reader (ok() false) and stop it.
class FieldReader {
 public:
  FieldReader(const uint8_t *data, size_t len) : r_(data, len) {}

  template <typename... Fs>
  void operator()(Fs &&...fields) {
    (Get(fields), ...);
  }

  bool ok() const { return r_.ok(); }
  int64_t RemainingBytes() const { return r_.RemainingBytes(); }

 private:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void Get(T &v) {
    v = r_.Get<T>();
  }
  void Get(bool &b) { b = r_.Get<uint8_t>() != 0; }
  void Get(OuType &type) {
    const uint8_t raw = r_.Get<uint8_t>();
    if (raw >= kNumOuTypes) r_.MarkCorrupt();
    type = static_cast<OuType>(raw);
  }
  void Get(WireCode &code) {
    const uint16_t raw = r_.Get<uint16_t>();
    if (raw > static_cast<uint16_t>(WireCode::kNotPrimary)) r_.MarkCorrupt();
    code = static_cast<WireCode>(raw);
  }
  void Get(std::string &s) { s = r_.GetString(); }
  void Get(std::vector<double> &v) { v = r_.GetDoubles(); }
  void Get(Value &v) { GetValue(&r_, &v); }
  void Get(Labels &labels) { r_.GetRaw(labels.data(), sizeof(Labels)); }
  template <typename Count, size_t kMinBytes, typename T>
  void Get(Repeated<Count, kMinBytes, T> &field) {
    const Count n = r_.Get<Count>();
    if (r_.ok() && n > static_cast<uint64_t>(r_.RemainingBytes()) / kMinBytes) {
      r_.MarkCorrupt();
    }
    field.items.clear();
    if (!r_.ok()) return;
    field.items.resize(n);
    if constexpr (std::is_arithmetic_v<T>) {
      r_.GetRaw(field.items.data(), field.items.size() * sizeof(T));
    } else {
      for (T &item : field.items) {
        Get(item);
        if (!r_.ok()) return;
      }
    }
  }
  template <typename M>
  void Get(M &message) {
    Fields(*this, message);
  }

  ByteReader r_;
};

/// The head of every response: its code and, for an error, the message.
struct ResponseHead {
  WireCode code = WireCode::kOk;
  std::string message;
};
template <typename IO>
void Fields(IO &io, ResponseHead &m) {
  io(m.code, m.message);
}

/// PREDICT_OUS request: u32 count, then per OU its type and features.
template <typename IO>
void Fields(IO &io, TranslatedOu &ou) {
  io(ou.type, ou.features);
}
template <typename IO>
void Fields(IO &io, std::vector<TranslatedOu> &ous) {
  io(Repeat<uint32_t, 1 + 8>(ous));
}

/// SQL_QUERY response: rows of the engine's Batch flattened to tuples; a
/// row is a u16 column count and its Values (at least 5 bytes each).
struct SqlResponseBody {
  std::vector<Tuple> rows;
  double elapsed_us = 0.0;
  bool aborted = false;
};
template <typename IO>
void Fields(IO &io, Tuple &row) {
  io(Repeat<uint16_t, 1 + 4>(row));
}
template <typename IO>
void Fields(IO &io, SqlResponseBody &m) {
  io(m.elapsed_us, m.aborted, Repeat<uint64_t, 2>(m.rows));
}

struct PredictResponseBody {
  std::vector<Labels> per_ou;
  uint32_t degraded_ous = 0;
};
template <typename IO>
void Fields(IO &io, PredictResponseBody &m) {
  io(m.degraded_ous, Repeat<uint64_t, sizeof(Labels)>(m.per_ou));
}

/// REPL_SUBSCRIBE: a follower announces itself and where it will resume.
struct ReplSubscribeRequest {
  std::string replica_id;
  uint64_t start_offset = 0;  ///< follower's local durable log-copy size
};
template <typename IO>
void Fields(IO &io, ReplSubscribeRequest &m) {
  io(m.replica_id, m.start_offset);
}

struct ReplSubscribeResponseBody {
  uint64_t durable_tip = 0;  ///< primary's flushed WAL size in bytes
  uint64_t epoch = 0;        ///< bumped on every promotion
};
template <typename IO>
void Fields(IO &io, ReplSubscribeResponseBody &m) {
  io(m.durable_tip, m.epoch);
}

/// REPL_LOG_BATCH request: fetch up to `max_bytes` of WAL from `offset`.
/// `epoch` is the newest primary epoch the follower has seen (0 = none yet);
/// a primary serving an *older* epoch answers NOT_PRIMARY instead of bytes,
/// so a resurrected stale primary can never feed an up-to-date follower.
struct ReplFetchRequest {
  std::string replica_id;
  uint64_t offset = 0;
  uint32_t max_bytes = 0;
  uint64_t epoch = 0;
};
template <typename IO>
void Fields(IO &io, ReplFetchRequest &m) {
  io(m.replica_id, m.offset, m.max_bytes, m.epoch);
}

/// REPL_LOG_BATCH response: raw WAL bytes [offset, offset + data.size()).
/// `batch_crc` covers `data` end to end (shipped bytes are appended to the
/// follower's log copy, so corruption must be caught before the disk, not
/// just per-frame). An empty `data` means the follower is caught up.
struct ReplLogBatchBody {
  uint64_t offset = 0;
  std::vector<uint8_t> data;
  uint32_t batch_crc = 0;
  uint64_t durable_tip = 0;
  uint64_t epoch = 0;
};
template <typename IO>
void Fields(IO &io, ReplLogBatchBody &m) {
  io(m.offset, m.durable_tip, m.epoch, m.batch_crc,
     Repeat<uint32_t, 1>(m.data));
}

/// REPL_ACK: the follower's applied tip; response is a bare status.
struct ReplAckRequest {
  std::string replica_id;
  uint64_t applied_offset = 0;
  uint64_t applied_records = 0;
};
template <typename IO>
void Fields(IO &io, ReplAckRequest &m) {
  io(m.replica_id, m.applied_offset, m.applied_records);
}

/// CTRL_STATUS response: whether a controller is attached and running, its
/// counters + decision log (ctrl::ControllerStatus verbatim), and the
/// SettingsManager's knob-change audit ring. `attached` false means the
/// server runs without a controller; the rest is then empty except the knob
/// audit, which exists regardless.
struct CtrlStatusBody {
  bool attached = false;
  bool running = false;
  ctrl::ControllerStatus status;
  std::vector<KnobChange> knob_changes;
  uint64_t knob_changes_total = 0;
};
/// A decision takes at least 48 bytes on the wire, a knob change 32.
template <typename IO>
void Fields(IO &io, ctrl::Decision &d) {
  io(d.time_us, d.action, d.kind, d.predicted_baseline_us,
     d.predicted_benefit_us, d.observed_before_us, d.observed_after_us);
}
template <typename IO>
void Fields(IO &io, KnobChange &c) {
  io(c.name, c.old_value, c.new_value, c.source, c.time_us);
}
template <typename IO>
void Fields(IO &io, CtrlStatusBody &m) {
  ctrl::ControllerStatus &s = m.status;
  io(m.attached, m.running, s.ticks, s.actions_applied, s.actions_rolled_back,
     s.rollback_failures, s.ous_retrained, s.templates_tracked,
     s.queries_observed, s.last_action_us, s.pending_verification,
     Repeat<uint32_t, 48>(s.decisions), Repeat<uint32_t, 32>(m.knob_changes),
     m.knob_changes_total);
}

/// HEALTH response: role + replication position. The request has no payload.
struct HealthInfo {
  uint8_t role = 0;  ///< 0 = follower (read-only), 1 = primary
  uint64_t epoch = 0;
  uint64_t durable_tip = 0;      ///< primary: flushed WAL bytes
  uint64_t applied_offset = 0;   ///< follower: bytes applied locally
};
template <typename IO>
void Fields(IO &io, HealthInfo &m) {
  io(m.role, m.epoch, m.durable_tip, m.applied_offset);
}

/// The payload holding `messages` back to back (EncodeFrame wraps it).
template <typename... Messages>
std::vector<uint8_t> Encode(const Messages &...messages) {
  ByteWriter w;
  FieldWriter io(&w);
  io(messages...);
  return w.Take();
}

/// Reads one message from payload[offset..]; false unless it decodes and
/// ends exactly at the payload's end.
template <typename Message>
bool Decode(const std::vector<uint8_t> &payload, size_t offset, Message *out) {
  if (offset > payload.size()) return false;
  FieldReader io(payload.data() + offset, payload.size() - offset);
  io(*out);
  return io.ok() && io.RemainingBytes() == 0;
}

/// Reads any response's head: its code and message, and where the body
/// starts. False on a malformed head.
bool DecodeResponseHead(const std::vector<uint8_t> &payload, WireCode *code,
                        std::string *message, size_t *body_offset);

}  // namespace mb2::net
