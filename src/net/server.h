#pragma once

/// \file server.h
/// Non-blocking epoll TCP server exposing the engine and the MB2 serving
/// layer over the framed wire protocol (net/wire.h). Architecture:
///
///   acceptor thread ──▶ round-robin ──▶ N reactor threads (edge-triggered
///   epoll, eventfd wakeups) ──▶ frame decode ──▶ admission control ──▶
///   common::ThreadPool workers ──▶ response enqueued back on the
///   connection, reactor flushes it.
///
/// Admission control bounds the number of dispatched-but-unfinished
/// requests (knob `net_queue_depth`); excess requests are answered
/// SERVER_BUSY from the reactor without touching a worker. Every dispatched
/// request carries a deadline (knob `net_default_deadline_ms`); a request
/// still queued when its deadline passes is answered DEADLINE_EXCEEDED
/// instead of executing. Both knobs are re-read from the SettingsManager on
/// every admission decision, so the self-driving planner can change them on
/// a live server.
///
/// Stop() drains gracefully: the acceptor closes first (new connections are
/// refused), in-flight requests finish and their responses are flushed,
/// then connections close and the threads join. Requests arriving on live
/// connections during the drain are answered SHUTTING_DOWN.
///
/// Observability: per-opcode request counters and latency histograms,
/// bytes in/out, shed/protocol-error counters, a live-connections gauge,
/// and one ObsSpan per request (opened on the worker thread, so engine
/// spans nest under it and a remote query yields the same trace tree as an
/// embedded one).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/wire.h"

namespace mb2 {
class Database;
class ModelBot;
}  // namespace mb2

namespace mb2::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the chosen one back via port().
  uint16_t port = 0;
  int num_reactors = 2;
  /// Worker pool size; 0 reads the `net_worker_threads` knob once at
  /// Start() (the pool cannot resize live — restart to apply).
  int num_workers = 0;
  /// Max dispatched-but-unfinished requests before load-shedding; 0 reads
  /// the `net_queue_depth` knob on every admission decision (hot-tunable).
  int queue_depth = 0;
  /// Per-request deadline; 0 reads `net_default_deadline_ms` per request
  /// (hot-tunable). Requests that out-wait it in the queue are rejected.
  int64_t default_deadline_ms = 0;
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Wall-clock budget for flushing remaining responses during Stop().
  int64_t drain_timeout_ms = 5000;
};

/// Replication hooks a node plugs into its server. The server owns frame
/// decode/encode and threading; the service supplies semantics (src/repl
/// implements the primary side in ReplicationSource and the follower side
/// in ReplicaNode). Declared here rather than in repl/ so net/ does not
/// depend on the replication subsystem. All methods are called from worker
/// threads and must be thread-safe.
class ReplService {
 public:
  virtual ~ReplService() = default;
  /// REPL_SUBSCRIBE — register `req.replica_id`, report the durable tip.
  virtual Status Subscribe(const ReplSubscribeRequest &req,
                           ReplSubscribeResponseBody *out) = 0;
  /// REPL_LOG_BATCH — read up to `req.max_bytes` of durable WAL at
  /// `req.offset`. An empty batch means caught up, not an error.
  virtual Status Fetch(const ReplFetchRequest &req, ReplLogBatchBody *out) = 0;
  /// REPL_ACK — record the replica's applied tip (lag accounting).
  virtual Status Ack(const ReplAckRequest &req) = 0;
  /// HEALTH — this node's role/epoch/positions.
  virtual HealthInfo Health() = 0;
};

/// Monotonic server-lifetime stats, independent of the obs registry (which
/// is sampling-gated); tests assert on these directly.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t active_connections = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t deadline_expired = 0;
  uint64_t protocol_errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class Server {
 public:
  /// `db` must outlive the server; `bot` may be null (PREDICT_OUS then
  /// answers BAD_REQUEST).
  Server(Database *db, ModelBot *bot, ServerOptions options);
  ~Server();
  MB2_DISALLOW_COPY_AND_MOVE(Server);

  /// Binds, listens, and spawns acceptor/reactor/worker threads.
  Status Start();
  /// Graceful drain; idempotent. Safe to call on a never-started server.
  void Stop();

  bool running() const { return state_.load() == State::kRunning; }
  /// The bound port (after Start(); useful with an ephemeral bind).
  uint16_t port() const { return bound_port_; }

  ServerStats stats() const;

  /// Attaches the replication service answering REPL_*/HEALTH opcodes. Set
  /// before Start(); without one, HEALTH answers "standalone primary" and
  /// the REPL_* opcodes answer BAD_REQUEST.
  void set_repl_service(ReplService *service) { repl_ = service; }

  /// Attaches the autonomous controller answering CTRL_STATUS. Set before
  /// Start(); without one, CTRL_STATUS still answers (attached=false, knob
  /// audit only). The controller must outlive the server.
  void set_controller(ctrl::Controller *controller) { controller_ = controller; }

 private:
  enum class State : int { kIdle, kRunning, kDraining, kStopped };

  struct Connection;
  struct Reactor;

  void AcceptorLoop();
  void ReactorLoop(Reactor *reactor);

  // Reactor-thread helpers.
  void AddPending(Reactor *reactor);
  void HandleReadable(Reactor *reactor, const std::shared_ptr<Connection> &conn);
  void HandleFrame(Reactor *reactor, const std::shared_ptr<Connection> &conn,
                   Frame frame);
  void FlushConnection(Reactor *reactor, const std::shared_ptr<Connection> &conn);
  void CloseConnection(Reactor *reactor, const std::shared_ptr<Connection> &conn);

  // Worker-side request execution.
  void ExecuteRequest(const std::shared_ptr<Connection> &conn, Frame frame,
                      int64_t deadline_us);
  std::vector<uint8_t> DispatchOpcode(const Frame &frame);

  /// Thread-safe response path: append to the connection's outbox and wake
  /// its reactor. Callable from any thread.
  void SendResponse(const std::shared_ptr<Connection> &conn,
                    std::vector<uint8_t> frame_bytes);

  int64_t CurrentQueueDepth() const;
  int64_t CurrentDeadlineUs() const;

  Database *db_;
  ModelBot *bot_;
  ReplService *repl_ = nullptr;
  ctrl::Controller *controller_ = nullptr;
  ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<State> state_{State::kIdle};

  std::thread acceptor_;
  int acceptor_wake_fd_ = -1;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::unique_ptr<ThreadPool> workers_;
  size_t next_reactor_ = 0;

  /// Dispatched-but-unfinished requests (admission-control bound).
  std::atomic<int64_t> inflight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  /// Phase-3 shutdown flag: reactors flush remaining outboxes, close their
  /// connections, and exit once this is set (inflight_ is already 0).
  std::atomic<bool> drain_close_{false};
  std::atomic<int64_t> drain_deadline_us_{0};

  // Lifetime stats (relaxed atomics; merged into ServerStats on read).
  std::atomic<uint64_t> n_accepted_{0}, n_requests_{0}, n_shed_{0},
      n_deadline_{0}, n_protocol_errors_{0}, n_bytes_in_{0}, n_bytes_out_{0},
      n_active_{0};
};

}  // namespace mb2::net
