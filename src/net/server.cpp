#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "common/fault_injector.h"
#include "database.h"
#include "metrics/metrics_collector.h"
#include "modeling/model_bot.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace mb2::net {

namespace {

// Obs handles are resolved once per process; the hot path is the gated
// relaxed add inside Counter/Histogram.
Counter &BytesInCounter() {
  static Counter &c = MetricsRegistry::Instance().GetCounter("mb2_net_bytes_in_total");
  return c;
}
Counter &BytesOutCounter() {
  static Counter &c = MetricsRegistry::Instance().GetCounter("mb2_net_bytes_out_total");
  return c;
}
Counter &ShedCounter() {
  static Counter &c = MetricsRegistry::Instance().GetCounter("mb2_net_shed_total");
  return c;
}
Counter &ProtocolErrorCounter() {
  static Counter &c =
      MetricsRegistry::Instance().GetCounter("mb2_net_protocol_errors_total");
  return c;
}
Gauge &ConnectionsGauge() {
  static Gauge &g = MetricsRegistry::Instance().GetGauge("mb2_net_connections");
  return g;
}

/// Obs handles and span name of one opcode, resolved once per process from
/// the opcode table.
struct OpcodeObs {
  const char *span;
  Counter *requests;
  Histogram *latency;
};

OpcodeObs ResolveObs(const OpcodeInfo &info) {
  const std::string label = std::string("{opcode=\"") + info.name + "\"}";
  MetricsRegistry &registry = MetricsRegistry::Instance();
  return {info.span, &registry.GetCounter("mb2_net_requests_total" + label),
          &registry.GetHistogram("mb2_net_request_latency_us" + label)};
}

const OpcodeObs &ObsFor(Opcode op) {
  static const std::vector<OpcodeObs> known = [] {
    std::vector<OpcodeObs> out;
    for (const OpcodeInfo &info : kOpcodeTable) out.push_back(ResolveObs(info));
    return out;
  }();
  for (size_t i = 0; i < known.size(); i++) {
    if (kOpcodeTable[i].op == op) return known[i];
  }
  // Registered on first use only, so the UNKNOWN series exists only once an
  // unknown opcode has actually arrived.
  static const OpcodeObs unknown = ResolveObs(kUnknownOpcode);
  return unknown;
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A response with no body: `code` and `message`.
std::vector<uint8_t> Answer(WireCode code, std::string message) {
  return Encode(ResponseHead{code, std::move(message)});
}

/// What a handler returned, as a response: an OK head and the body, or the
/// error's wire code with its ToString() as the message.
std::vector<uint8_t> Reply(const Status &s) {
  return s.ok() ? Encode(ResponseHead{})
                : Answer(StatusToWireCode(s), s.ToString());
}
template <typename Body>
std::vector<uint8_t> Reply(const Result<Body> &result) {
  return result.ok() ? Encode(ResponseHead{}, result.value())
                     : Reply(result.status());
}

/// Why a decoded request is refused before its handler runs, or "". The
/// serving layer batches the OUs of a type into one matrix, so every feature
/// vector must have its OU's descriptor width: a hostile width is refused
/// here rather than aborting in the math kernels.
template <typename Request>
std::string Refusal(const Request &) {
  return {};
}
std::string Refusal(const std::vector<TranslatedOu> &ous) {
  for (const TranslatedOu &ou : ous) {
    if (ou.features.size() != GetOuDescriptor(ou.type).feature_names.size()) {
      return std::string("feature width mismatch for OU ") + OuTypeName(ou.type);
    }
  }
  return {};
}

/// One opcode with a request body: decode the request (answering
/// "bad <OPCODE> payload" when it does not decode), run `handle` on it, and
/// encode the Status or Result<Body> it returns.
template <typename Request, typename Handler>
std::vector<uint8_t> Serve(const Frame &frame, Handler handle) {
  Request request{};
  if (!Decode(frame.payload, 0, &request)) {
    return Answer(WireCode::kBadRequest,
                  std::string("bad ") + OpcodeName(frame.Op()) + " payload");
  }
  std::string refusal = Refusal(request);
  if (!refusal.empty()) return Answer(WireCode::kBadRequest, std::move(refusal));
  return Reply(handle(request));
}

}  // namespace

/// One accepted TCP connection. Reads, frame decoding, and socket writes
/// happen only on the owning reactor's thread; worker threads touch only
/// the mutex-guarded outbox (via Server::SendResponse).
struct Server::Connection {
  int fd = -1;
  Reactor *reactor = nullptr;
  FrameDecoder decoder;

  std::mutex out_mutex;
  std::deque<std::vector<uint8_t>> outbox;  ///< guarded by out_mutex
  size_t out_offset = 0;                    ///< sent bytes of outbox.front()

  /// Set (with an error response enqueued) on protocol errors: the reactor
  /// closes the connection once the outbox drains, and stops reading.
  std::atomic<bool> close_after_flush{false};
  std::atomic<bool> closed{false};
  bool want_write = false;  ///< EPOLLOUT armed; reactor thread only
};

struct Server::Reactor {
  int epfd = -1;
  int wake_fd = -1;
  std::thread thr;

  std::mutex mutex;  ///< guards pending_adds and notify
  std::vector<std::shared_ptr<Connection>> pending_adds;
  std::vector<std::shared_ptr<Connection>> notify;

  /// Live connections by fd; touched only by the reactor thread.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;

  void Wake() const {
    uint64_t one = 1;
    ssize_t rc = write(wake_fd, &one, sizeof(one));
    MB2_UNUSED(rc);  // eventfd writes only fail at overflow, which still wakes
  }
};

Server::Server(Database *db, ModelBot *bot, ServerOptions options)
    : db_(db), bot_(bot), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (state_.load() != State::kIdle) {
    return Status::InvalidArgument("server already started");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IoError("socket: " + std::string(strerror(errno)));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 128) != 0) {
    const Status s = Status::IoError("bind/listen: " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  acceptor_wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  const int n_reactors = options_.num_reactors > 0 ? options_.num_reactors : 1;
  for (int i = 0; i < n_reactors; i++) {
    auto reactor = std::make_unique<Reactor>();
    reactor->epfd = epoll_create1(EPOLL_CLOEXEC);
    reactor->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = reactor->wake_fd;
    epoll_ctl(reactor->epfd, EPOLL_CTL_ADD, reactor->wake_fd, &ev);
    reactors_.push_back(std::move(reactor));
  }

  int n_workers = options_.num_workers;
  if (n_workers <= 0) {
    n_workers = static_cast<int>(db_->settings().GetInt("net_worker_threads"));
  }
  if (n_workers <= 0) n_workers = 1;
  workers_ = std::make_unique<ThreadPool>(static_cast<size_t>(n_workers));

  state_.store(State::kRunning);
  for (auto &reactor : reactors_) {
    reactor->thr = std::thread([this, r = reactor.get()] { ReactorLoop(r); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  State expected = State::kRunning;
  if (!state_.compare_exchange_strong(expected, State::kDraining)) {
    if (expected == State::kIdle) state_.store(State::kStopped);
    return;
  }

  // Phase 1: refuse new connections. Requests arriving on live connections
  // from here on are answered SHUTTING_DOWN by HandleFrame.
  uint64_t one = 1;
  ssize_t rc = write(acceptor_wake_fd_, &one, sizeof(one));
  MB2_UNUSED(rc);
  if (acceptor_.joinable()) acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  // Phase 2: let every dispatched request finish and enqueue its response.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return inflight_.load() == 0; });
  }

  // Phase 3: reactors flush the remaining outboxes, then close and exit.
  drain_deadline_us_.store(NowMicros() + options_.drain_timeout_ms * 1000);
  drain_close_.store(true, std::memory_order_release);
  for (auto &reactor : reactors_) reactor->Wake();
  for (auto &reactor : reactors_) {
    if (reactor->thr.joinable()) reactor->thr.join();
    close(reactor->epfd);
    close(reactor->wake_fd);
  }
  reactors_.clear();

  workers_.reset();  // queue is empty (inflight drained); joins the workers
  close(acceptor_wake_fd_);
  acceptor_wake_fd_ = -1;
  state_.store(State::kStopped);
}

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = n_accepted_.load(std::memory_order_relaxed);
  out.active_connections = n_active_.load(std::memory_order_relaxed);
  out.requests = n_requests_.load(std::memory_order_relaxed);
  out.shed = n_shed_.load(std::memory_order_relaxed);
  out.deadline_expired = n_deadline_.load(std::memory_order_relaxed);
  out.protocol_errors = n_protocol_errors_.load(std::memory_order_relaxed);
  out.bytes_in = n_bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = n_bytes_out_.load(std::memory_order_relaxed);
  return out;
}

int64_t Server::CurrentQueueDepth() const {
  if (options_.queue_depth > 0) return options_.queue_depth;
  const int64_t knob = db_->settings().GetInt("net_queue_depth");
  return knob > 0 ? knob : 1;
}

int64_t Server::CurrentDeadlineUs() const {
  const int64_t ms = options_.default_deadline_ms > 0
                         ? options_.default_deadline_ms
                         : db_->settings().GetInt("net_default_deadline_ms");
  return ms > 0 ? ms * 1000 : 0;  // 0 = no deadline
}

void Server::AcceptorLoop() {
  while (state_.load() == State::kRunning) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {acceptor_wake_fd_, POLLIN, 0};
    const int n = poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Stop() woke us
    if (fds[0].revents == 0) continue;

    while (true) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or listen fd going away
      FaultInjector &injector = FaultInjector::Instance();
      if (injector.Armed()) {
        const FaultCheck check = injector.Hit(fault_point::kNetAccept);
        if (check.fire) {
          // Simulated accept failure: the client sees an immediate close
          // and must reconnect.
          close(fd);
          continue;
        }
      }
      SetNoDelay(fd);

      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->decoder = FrameDecoder(options_.max_payload_bytes);

      Reactor *reactor = reactors_[next_reactor_].get();
      next_reactor_ = (next_reactor_ + 1) % reactors_.size();
      conn->reactor = reactor;

      n_accepted_.fetch_add(1, std::memory_order_relaxed);
      ConnectionsGauge().Set(static_cast<double>(
          n_active_.fetch_add(1, std::memory_order_relaxed) + 1));

      {
        std::lock_guard<std::mutex> lock(reactor->mutex);
        reactor->pending_adds.push_back(std::move(conn));
      }
      reactor->Wake();
    }
  }
}

void Server::AddPending(Reactor *reactor) {
  std::vector<std::shared_ptr<Connection>> adds;
  {
    std::lock_guard<std::mutex> lock(reactor->mutex);
    adds.swap(reactor->pending_adds);
  }
  for (auto &conn : adds) {
    if (drain_close_.load(std::memory_order_acquire)) {
      CloseConnection(reactor, conn);
      continue;
    }
    epoll_event ev{};
    // Edge-triggered: EPOLL_CTL_ADD reports current readiness as the first
    // edge, so data that raced ahead of the registration is not lost.
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = conn->fd;
    if (epoll_ctl(reactor->epfd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      CloseConnection(reactor, conn);
      continue;
    }
    reactor->conns[conn->fd] = conn;
  }
}

void Server::ReactorLoop(Reactor *reactor) {
  epoll_event events[64];
  while (true) {
    const bool closing = drain_close_.load(std::memory_order_acquire);
    const int timeout_ms = closing ? 20 : -1;
    const int n = epoll_wait(reactor->epfd, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; i++) {
      const int fd = events[i].data.fd;
      if (fd == reactor->wake_fd) {
        uint64_t drained;
        while (read(reactor->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = reactor->conns.find(fd);
      if (it == reactor->conns.end()) continue;  // closed earlier this batch
      std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(reactor, conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(reactor, conn);
      if ((events[i].events & EPOLLOUT) != 0 && !conn->closed.load()) {
        FlushConnection(reactor, conn);
      }
    }

    AddPending(reactor);

    std::vector<std::shared_ptr<Connection>> notify;
    {
      std::lock_guard<std::mutex> lock(reactor->mutex);
      notify.swap(reactor->notify);
    }
    for (auto &conn : notify) {
      if (!conn->closed.load()) FlushConnection(reactor, conn);
    }

    if (drain_close_.load(std::memory_order_acquire)) {
      // Final flush: close each connection once its outbox is empty (or the
      // drain budget ran out — a stuck peer must not wedge shutdown).
      const bool budget_spent = NowMicros() > drain_deadline_us_.load();
      std::vector<std::shared_ptr<Connection>> live;
      live.reserve(reactor->conns.size());
      for (auto &[fd, conn] : reactor->conns) live.push_back(conn);
      for (auto &conn : live) {
        if (conn->closed.load()) continue;
        FlushConnection(reactor, conn);
        if (conn->closed.load()) continue;
        bool empty;
        {
          std::lock_guard<std::mutex> lock(conn->out_mutex);
          empty = conn->outbox.empty();
        }
        if (empty || budget_spent) CloseConnection(reactor, conn);
      }
      if (reactor->conns.empty()) break;
    }
  }
  // Safety net (error exit paths): nothing must leak.
  std::vector<std::shared_ptr<Connection>> rest;
  for (auto &[fd, conn] : reactor->conns) rest.push_back(conn);
  for (auto &conn : rest) CloseConnection(reactor, conn);
}

void Server::HandleReadable(Reactor *reactor,
                            const std::shared_ptr<Connection> &conn) {
  if (conn->closed.load() || conn->close_after_flush.load()) return;
  char buf[64 * 1024];
  while (true) {
    FaultInjector &injector = FaultInjector::Instance();
    if (injector.Armed()) {
      const FaultCheck check = injector.Hit(fault_point::kNetRead);
      if (check.fire) {
        CloseConnection(reactor, conn);
        return;
      }
    }
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      CloseConnection(reactor, conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(reactor, conn);
      return;
    }
    n_bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    BytesInCounter().Add(static_cast<uint64_t>(n));
    conn->decoder.Feed(buf, static_cast<size_t>(n));

    bool parsing = true;
    while (parsing) {
      Frame frame;
      switch (conn->decoder.Next(&frame)) {
        case FrameDecoder::Outcome::kNeedMore:
          parsing = false;
          break;
        case FrameDecoder::Outcome::kFrame:
          HandleFrame(reactor, conn, std::move(frame));
          if (conn->closed.load()) return;
          break;
        case FrameDecoder::Outcome::kBadCrc: {
          // Framing is intact (the corrupt frame was consumed), but the
          // payload cannot be trusted: answer, then drop the connection.
          n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          ProtocolErrorCounter().Add();
          SendResponse(conn, EncodeFrame(frame.opcode | kResponseBit,
                                         frame.request_id,
                                         Answer(WireCode::kBadRequest,
                                                "payload checksum mismatch")));
          conn->close_after_flush.store(true);
          return;
        }
        case FrameDecoder::Outcome::kOversized: {
          n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          ProtocolErrorCounter().Add();
          SendResponse(conn, EncodeFrame(frame.opcode | kResponseBit,
                                         frame.request_id,
                                         Answer(WireCode::kBadRequest,
                                                "payload length exceeds limit")));
          conn->close_after_flush.store(true);
          return;
        }
        case FrameDecoder::Outcome::kBadMagic:
        case FrameDecoder::Outcome::kBadVersion:
          // The stream is not speaking our protocol; nothing can be safely
          // answered (no trustworthy request id). Close.
          n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          ProtocolErrorCounter().Add();
          CloseConnection(reactor, conn);
          return;
      }
    }
  }
}

void Server::HandleFrame(Reactor *reactor,
                         const std::shared_ptr<Connection> &conn, Frame frame) {
  MB2_UNUSED(reactor);
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  ObsFor(frame.Op()).requests->Add();

  const uint16_t resp_opcode = frame.opcode | kResponseBit;
  if (state_.load() != State::kRunning) {
    SendResponse(conn, EncodeFrame(resp_opcode, frame.request_id,
                                   Answer(WireCode::kShuttingDown,
                                          "server draining")));
    return;
  }

  // Admission control: bound dispatched-but-unfinished requests. The knob is
  // re-read per decision, so the planner can tighten or widen a live server.
  const int64_t depth = CurrentQueueDepth();
  int64_t cur = inflight_.load();
  bool admitted = false;
  while (cur < depth) {
    if (inflight_.compare_exchange_weak(cur, cur + 1)) {
      admitted = true;
      break;
    }
  }
  if (admitted && state_.load() != State::kRunning) {
    // Raced with Stop(): the drain wait may already have sampled inflight_,
    // so this request must not run. Seq-cst ordering on state_/inflight_
    // guarantees Stop() observes either this increment or the kDraining
    // re-check here — never neither.
    if (inflight_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
    SendResponse(conn, EncodeFrame(resp_opcode, frame.request_id,
                                   Answer(WireCode::kShuttingDown,
                                          "server draining")));
    return;
  }
  if (!admitted) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    ShedCounter().Add();
    SendResponse(conn, EncodeFrame(resp_opcode, frame.request_id,
                                   Answer(WireCode::kServerBusy,
                                          "admission queue full")));
    return;
  }

  const int64_t deadline = CurrentDeadlineUs();
  const int64_t deadline_us = deadline > 0 ? NowMicros() + deadline : 0;
  workers_->Submit([this, conn, f = std::move(frame), deadline_us]() mutable {
    ExecuteRequest(conn, std::move(f), deadline_us);
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
  });
}

void Server::ExecuteRequest(const std::shared_ptr<Connection> &conn,
                            Frame frame, int64_t deadline_us) {
  const int64_t start_us = NowMicros();
  const OpcodeObs &obs = ObsFor(frame.Op());
  ObsSpan span(obs.span);

  std::vector<uint8_t> response;
  if (deadline_us > 0 && start_us > deadline_us) {
    n_deadline_.fetch_add(1, std::memory_order_relaxed);
    response = Answer(WireCode::kDeadlineExceeded, "request expired in queue");
  } else {
    try {
      response = DispatchOpcode(frame);
    } catch (const std::exception &e) {
      response = Answer(WireCode::kInternal, e.what());
    }
  }

  SendResponse(conn, EncodeFrame(frame.opcode | kResponseBit, frame.request_id,
                                 std::move(response)));
  obs.latency->Observe(static_cast<double>(NowMicros() - start_us));
}

std::vector<uint8_t> Server::DispatchOpcode(const Frame &frame) {
  // A request whose service is not attached is refused before its payload
  // is read.
  const Opcode op = frame.Op();
  if (op == Opcode::kPredictOus && bot_ == nullptr) {
    return Answer(WireCode::kBadRequest, "no model bot attached");
  }
  if ((op == Opcode::kReplSubscribe || op == Opcode::kReplLogBatch ||
       op == Opcode::kReplAck) &&
      repl_ == nullptr) {
    return Answer(WireCode::kBadRequest, "replication not enabled");
  }

  switch (op) {
    case Opcode::kPing:
      return Reply(Status::Ok());

    case Opcode::kSleep:
      return Serve<uint32_t>(frame, [](uint32_t millis) {
        // Bounded so a hostile sleep cannot wedge graceful drain.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(millis, 10'000u)));
        return Status::Ok();
      });

    case Opcode::kSqlQuery:
      return Serve<std::string>(
          frame, [this](const std::string &sql) -> Result<SqlResponseBody> {
            Result<QueryResult> result = db_->Execute(sql);
            if (!result.ok()) return result.status();
            QueryResult &qr = result.value();
            if (!qr.status.ok()) return qr.status;
            return SqlResponseBody{std::move(qr.batch.rows), qr.elapsed_us,
                                   qr.aborted};
          });

    case Opcode::kPredictOus:
      return Serve<std::vector<TranslatedOu>>(
          frame, [this](const std::vector<TranslatedOu> &ous) {
            PredictResponseBody body;
            body.per_ou = bot_->PredictOus(ous, &body.degraded_ous);
            return Result<PredictResponseBody>(std::move(body));
          });

    case Opcode::kGetMetrics:
      return Encode(ResponseHead{}, DumpMetricsJson());

    case Opcode::kCtrlStatus: {
      // Always answerable: the knob audit trail exists with or without a
      // controller; the controller section is filled only when attached.
      CtrlStatusBody body;
      if (controller_ != nullptr) {
        body.attached = true;
        body.running = controller_->running();
        body.status = controller_->GetStatus();
      }
      body.knob_changes = db_->settings().History();
      body.knob_changes_total = db_->settings().total_changes();
      return Encode(ResponseHead{}, body);
    }

    case Opcode::kHealth: {
      // Answerable on any node: a standalone server (no repl service) is by
      // definition the primary of its one-node cluster, so failover-aware
      // clients can probe uniformly.
      HealthInfo info;
      if (repl_ != nullptr) {
        info = repl_->Health();
      } else {
        info.role = 1;
      }
      return Encode(ResponseHead{}, info);
    }

    case Opcode::kReplSubscribe:
      return Serve<ReplSubscribeRequest>(
          frame,
          [this](const ReplSubscribeRequest &req)
              -> Result<ReplSubscribeResponseBody> {
            ReplSubscribeResponseBody body;
            const Status s = repl_->Subscribe(req, &body);
            if (!s.ok()) return s;
            return body;
          });

    case Opcode::kReplLogBatch:
      return Serve<ReplFetchRequest>(
          frame,
          [this](const ReplFetchRequest &req) -> Result<ReplLogBatchBody> {
            ReplLogBatchBody body;
            const Status s = repl_->Fetch(req, &body);
            if (!s.ok()) return s;
            return body;
          });

    case Opcode::kReplAck:
      return Serve<ReplAckRequest>(
          frame, [this](const ReplAckRequest &req) { return repl_->Ack(req); });
  }
  return Answer(WireCode::kBadRequest, "unknown opcode");
}

void Server::SendResponse(const std::shared_ptr<Connection> &conn,
                          std::vector<uint8_t> frame_bytes) {
  if (conn->closed.load(std::memory_order_acquire)) return;  // peer is gone
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    conn->outbox.push_back(std::move(frame_bytes));
  }
  Reactor *reactor = conn->reactor;
  {
    std::lock_guard<std::mutex> lock(reactor->mutex);
    reactor->notify.push_back(conn);
  }
  reactor->Wake();
}

void Server::FlushConnection(Reactor *reactor,
                             const std::shared_ptr<Connection> &conn) {
  if (conn->closed.load()) return;
  std::unique_lock<std::mutex> lock(conn->out_mutex);
  while (!conn->outbox.empty()) {
    const std::vector<uint8_t> &front = conn->outbox.front();
    FaultInjector &injector = FaultInjector::Instance();
    if (injector.Armed()) {
      const FaultCheck check = injector.Hit(fault_point::kNetWrite);
      if (check.fire) {
        lock.unlock();
        CloseConnection(reactor, conn);
        return;
      }
    }
    const ssize_t n = send(conn->fd, front.data() + conn->out_offset,
                           front.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
          ev.data.fd = conn->fd;
          epoll_ctl(reactor->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
          conn->want_write = true;
        }
        return;  // EPOLLOUT will resume the flush
      }
      if (errno == EINTR) continue;
      lock.unlock();
      CloseConnection(reactor, conn);
      return;
    }
    n_bytes_out_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    BytesOutCounter().Add(static_cast<uint64_t>(n));
    conn->out_offset += static_cast<size_t>(n);
    if (conn->out_offset == front.size()) {
      conn->outbox.pop_front();
      conn->out_offset = 0;
    }
  }
  lock.unlock();
  if (conn->want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = conn->fd;
    epoll_ctl(reactor->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->want_write = false;
  }
  if (conn->close_after_flush.load()) CloseConnection(reactor, conn);
}

void Server::CloseConnection(Reactor *reactor,
                             const std::shared_ptr<Connection> &conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  epoll_ctl(reactor->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  reactor->conns.erase(conn->fd);
  ConnectionsGauge().Set(static_cast<double>(
      n_active_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

}  // namespace mb2::net
