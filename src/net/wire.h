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
/// Malformed input never crashes the peer: FrameDecoder rejects bad
/// magic/version (framing lost — the connection must close), oversized
/// length prefixes, and CRC mismatches (reported per-frame so the server
/// can answer kBadRequest before closing); payload decoders are
/// bounds-checked via ByteReader.

#include <cstdint>
#include <string>
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

// --- Request payload codecs -------------------------------------------------
// Encoders build the payload only (EncodeFrame wraps it); decoders return
// false on malformed input.

std::vector<uint8_t> EncodeSqlRequest(const std::string &sql);
bool DecodeSqlRequest(const std::vector<uint8_t> &payload, std::string *sql);

std::vector<uint8_t> EncodePredictRequest(const std::vector<TranslatedOu> &ous);
bool DecodePredictRequest(const std::vector<uint8_t> &payload,
                          std::vector<TranslatedOu> *ous);

std::vector<uint8_t> EncodeSleepRequest(uint32_t millis);
bool DecodeSleepRequest(const std::vector<uint8_t> &payload, uint32_t *millis);

// --- Response payload codecs ------------------------------------------------

/// Error response (or bare-OK for PING/SLEEP): WireCode + message, no body.
std::vector<uint8_t> EncodeStatusResponse(WireCode code,
                                          const std::string &message);

/// Rows of a remote SQL result (the engine's Batch flattened to tuples).
struct SqlResponseBody {
  std::vector<Tuple> rows;
  double elapsed_us = 0.0;
  bool aborted = false;
};
std::vector<uint8_t> EncodeSqlResponse(const SqlResponseBody &body);

struct PredictResponseBody {
  std::vector<Labels> per_ou;
  uint32_t degraded_ous = 0;
};
std::vector<uint8_t> EncodePredictResponse(const PredictResponseBody &body);

std::vector<uint8_t> EncodeMetricsResponse(const std::string &json);

/// Splits any response payload into its leading (code, message) and the
/// remaining body bytes. Returns false on malformed payloads.
bool DecodeResponseHead(const std::vector<uint8_t> &payload, WireCode *code,
                        std::string *message, size_t *body_offset);

bool DecodeSqlResponseBody(const std::vector<uint8_t> &payload, size_t offset,
                           SqlResponseBody *out);
bool DecodePredictResponseBody(const std::vector<uint8_t> &payload,
                               size_t offset, PredictResponseBody *out);
bool DecodeMetricsResponseBody(const std::vector<uint8_t> &payload,
                               size_t offset, std::string *json);

// --- Replication payload codecs ---------------------------------------------

/// REPL_SUBSCRIBE: a follower announces itself and where it will resume.
struct ReplSubscribeRequest {
  std::string replica_id;
  uint64_t start_offset = 0;  ///< follower's local durable log-copy size
};
std::vector<uint8_t> EncodeReplSubscribeRequest(const ReplSubscribeRequest &req);
bool DecodeReplSubscribeRequest(const std::vector<uint8_t> &payload,
                                ReplSubscribeRequest *req);

struct ReplSubscribeResponseBody {
  uint64_t durable_tip = 0;  ///< primary's flushed WAL size in bytes
  uint64_t epoch = 0;        ///< bumped on every promotion
};
std::vector<uint8_t> EncodeReplSubscribeResponse(
    const ReplSubscribeResponseBody &body);
bool DecodeReplSubscribeResponseBody(const std::vector<uint8_t> &payload,
                                     size_t offset,
                                     ReplSubscribeResponseBody *out);

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
std::vector<uint8_t> EncodeReplFetchRequest(const ReplFetchRequest &req);
bool DecodeReplFetchRequest(const std::vector<uint8_t> &payload,
                            ReplFetchRequest *req);

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
std::vector<uint8_t> EncodeReplLogBatchResponse(const ReplLogBatchBody &body);
bool DecodeReplLogBatchResponseBody(const std::vector<uint8_t> &payload,
                                    size_t offset, ReplLogBatchBody *out);

/// REPL_ACK: the follower's applied tip; response is a bare status.
struct ReplAckRequest {
  std::string replica_id;
  uint64_t applied_offset = 0;
  uint64_t applied_records = 0;
};
std::vector<uint8_t> EncodeReplAckRequest(const ReplAckRequest &req);
bool DecodeReplAckRequest(const std::vector<uint8_t> &payload,
                          ReplAckRequest *req);

// --- Controller payload codecs ----------------------------------------------

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
std::vector<uint8_t> EncodeCtrlStatusResponse(const CtrlStatusBody &body);
bool DecodeCtrlStatusResponseBody(const std::vector<uint8_t> &payload,
                                  size_t offset, CtrlStatusBody *out);

/// HEALTH response: role + replication position. The request has no payload.
struct HealthInfo {
  uint8_t role = 0;  ///< 0 = follower (read-only), 1 = primary
  uint64_t epoch = 0;
  uint64_t durable_tip = 0;      ///< primary: flushed WAL bytes
  uint64_t applied_offset = 0;   ///< follower: bytes applied locally
};
std::vector<uint8_t> EncodeHealthResponse(const HealthInfo &info);
bool DecodeHealthResponseBody(const std::vector<uint8_t> &payload,
                              size_t offset, HealthInfo *out);

}  // namespace mb2::net
