#pragma once

/// \file client.h
/// Blocking C++ client for the MB2 network service. One Client owns a pool
/// of TCP connections to a single server; each request checks a connection
/// out, writes one frame, reads one response frame, and returns the
/// connection for reuse. Transport failures (connect refusal, reset, EOF,
/// timeout, CRC-corrupt response) are retried on a fresh connection with
/// exponential backoff + jitter (common/retry); server-reported errors come
/// back as typed Status without retry — except SERVER_BUSY/SHUTTING_DOWN
/// when `retry_busy` opts in, since load-shed responses are transient by
/// design. A NOT_PRIMARY response surfaces as Status::Unavailable — the
/// endpoint is alive but cannot serve by role (it was demoted, or the
/// cluster promoted another node); unlike a transport error, retrying the
/// same endpoint is pointless and callers should re-resolve the primary
/// (net/failover_client.h automates this).
///
/// Pooled connections and server restarts: a request that fails on a
/// *pooled* socket most often means the server restarted and every idle
/// socket in the pool died with it. The failed attempt drops the whole
/// pool and immediately redials once within the same attempt, so a healthy
/// restarted server costs zero retry budget instead of one failed attempt
/// per stale pooled connection.
///
/// Note on retry semantics: the transport retries whole requests, so a
/// non-idempotent SQL statement that died mid-flight may execute twice.
/// That is the standard at-least-once trade-off; set
/// `retry.max_attempts = 1` for at-most-once writes.
///
/// Thread safety: a Client may be shared across threads; the pool hands
/// each request its own socket.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/wire.h"

namespace mb2::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int64_t connect_timeout_ms = 2000;
  /// Socket send/receive timeout per attempt; an expiry counts as a
  /// transient transport failure (the attempt is retried).
  int64_t request_timeout_ms = 10'000;
  /// Idle connections kept for reuse.
  size_t pool_size = 4;
  RetryPolicy retry;
  /// Also retry SERVER_BUSY / SHUTTING_DOWN responses (off by default so
  /// load-shed behavior stays observable to callers).
  bool retry_busy = false;
  uint64_t rng_seed = 0x5eed;  ///< backoff jitter seed
};

/// Remote SQL result: the server-side engine's QueryResult as the wire
/// carries it (rows, server-side execution latency, aborted flag).
using RemoteQueryResult = SqlResponseBody;
/// Remote prediction: labels parallel to the request's OUs, plus how many
/// were served from fallback labels.
using RemotePrediction = PredictResponseBody;

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();
  MB2_DISALLOW_COPY_AND_MOVE(Client);

  Status Ping();
  Result<RemoteQueryResult> ExecuteSql(const std::string &sql);
  Result<RemotePrediction> PredictOus(const std::vector<TranslatedOu> &ous);
  Result<std::string> GetMetricsJson();
  /// Occupies a server worker for `millis` (test/bench support).
  Status Sleep(uint32_t millis);

  /// HEALTH probe: the node's role/epoch/replication position.
  Result<HealthInfo> Health();
  /// CTRL_STATUS probe: controller counters, decision log with
  /// predicted-vs-actual latencies, and the knob-change audit trail.
  Result<CtrlStatusBody> CtrlStatus();
  /// Replication RPCs (driven by repl::ReplicaNode against the primary).
  Result<ReplSubscribeResponseBody> ReplSubscribe(
      const ReplSubscribeRequest &req);
  Result<ReplLogBatchBody> ReplFetch(const ReplFetchRequest &req);
  Status ReplAck(const ReplAckRequest &req);

  struct Stats {
    uint64_t requests = 0;      ///< round-trips attempted (including retries)
    uint64_t retries = 0;       ///< attempts beyond the first
    uint64_t reconnects = 0;    ///< fresh dials (pool misses + post-failure)
    uint64_t pool_flushes = 0;  ///< pools dropped after a stale-socket failure
  };
  Stats stats() const;

 private:
  /// One attempt: checkout/dial, write request frame, read response frame.
  /// Transport problems only; the response's WireCode is not interpreted.
  /// A failure on a pooled socket flushes the pool and redials once (see
  /// file comment) before the attempt counts as failed.
  Status TryOnce(Opcode op, const std::vector<uint8_t> &payload,
                 uint64_t request_id, Frame *out);
  /// Writes the request and reads the matching response on `fd`.
  Status RoundtripOnFd(int fd, Opcode op, const std::vector<uint8_t> &payload,
                       uint64_t request_id, Frame *out);
  /// Closes every idle pooled connection.
  void FlushPool();
  /// Full request with retry/backoff. On OK, *out holds the response frame
  /// (whose payload may still carry a server-side error code).
  Status Roundtrip(Opcode op, const std::vector<uint8_t> &payload, Frame *out);

  /// Body of an OK response that carries none (PING, SLEEP, REPL_ACK); any
  /// bytes behind the head are ignored.
  struct NoBody {};
  /// Every call's path: Roundtrip, the response head, the server's code,
  /// then Decode of the body. Errors name the opcode.
  template <typename Body>
  Result<Body> Call(Opcode op, const std::vector<uint8_t> &payload);

  Result<int> Dial();
  int Checkout();          ///< pooled fd or -1
  void Checkin(int fd);    ///< return for reuse (closes past pool_size)

  ClientOptions options_;
  std::mutex pool_mutex_;
  std::vector<int> pool_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> n_requests_{0}, n_retries_{0}, n_reconnects_{0},
      n_pool_flushes_{0};
};

}  // namespace mb2::net
