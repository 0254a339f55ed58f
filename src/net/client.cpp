#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <type_traits>

#include "common/fault_injector.h"

namespace mb2::net {

namespace {

void SetSocketTimeout(int fd, int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status SendAll(int fd, const uint8_t *data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("send: " + std::string(strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status RecvAll(int fd, uint8_t *data, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = recv(fd, data + got, len - got, 0);
    if (n == 0) return Status::IoError("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("request timed out");
      }
      return Status::IoError("recv: " + std::string(strerror(errno)));
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Server-reported codes that represent transient overload rather than a
/// request defect.
bool IsBusyCode(WireCode code) {
  return code == WireCode::kServerBusy || code == WireCode::kShuttingDown;
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  for (int fd : pool_) close(fd);
  pool_.clear();
}

Result<int> Client::Dial() {
  // net.connect simulates an unreachable endpoint (partition, dead host)
  // without needing a real network: the dial fails before any syscall.
  FaultInjector &injector = FaultInjector::Instance();
  if (injector.Armed()) {
    const FaultCheck check = injector.Hit(fault_point::kNetConnect);
    if (check.fire) {
      if (check.action == FaultAction::kThrow) throw InjectedFault(check.message);
      return check.ToStatus(fault_point::kNetConnect);
    }
  }

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket: " + std::string(strerror(errno)));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host: " + options_.host);
  }

  // Non-blocking connect bounded by connect_timeout_ms, then the socket
  // turns blocking with per-attempt send/recv timeouts.
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int prc = poll(&pfd, 1, static_cast<int>(options_.connect_timeout_ms));
    if (prc == 1) {
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
      errno = err;
    } else {
      if (prc == 0) errno = ETIMEDOUT;
      rc = -1;
    }
  }
  if (rc != 0) {
    const Status s = Status::IoError("connect: " + std::string(strerror(errno)));
    close(fd);
    return s;
  }
  fcntl(fd, F_SETFL, flags);
  SetSocketTimeout(fd, options_.request_timeout_ms);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  n_reconnects_.fetch_add(1, std::memory_order_relaxed);
  return fd;
}

int Client::Checkout() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.empty()) return -1;
  const int fd = pool_.back();
  pool_.pop_back();
  return fd;
}

void Client::Checkin(int fd) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.size() < options_.pool_size) {
    pool_.push_back(fd);
    return;
  }
  close(fd);
}

void Client::FlushPool() {
  std::vector<int> stale;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    stale.swap(pool_);
  }
  for (int fd : stale) close(fd);
  n_pool_flushes_.fetch_add(1, std::memory_order_relaxed);
}

Status Client::TryOnce(Opcode op, const std::vector<uint8_t> &payload,
                       uint64_t request_id, Frame *out) {
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  bool pooled = true;
  int fd = Checkout();
  if (fd < 0) {
    pooled = false;
    Result<int> dialed = Dial();
    if (!dialed.ok()) return dialed.status();
    fd = dialed.value();
  }

  Status s = RoundtripOnFd(fd, op, payload, request_id, out);
  if (s.ok()) {
    Checkin(fd);
    return s;
  }
  close(fd);
  if (!pooled) return s;

  // The socket came from the pool, so this failure is most likely a stale
  // connection from before a server restart, not a server that is down now.
  // Every idle sibling died with it: drop them all and prove the endpoint
  // one way or the other on a fresh dial, without spending a retry attempt
  // (and its backoff) per stale socket.
  FlushPool();
  Result<int> dialed = Dial();
  if (!dialed.ok()) return dialed.status();
  fd = dialed.value();
  s = RoundtripOnFd(fd, op, payload, request_id, out);
  if (!s.ok()) {
    close(fd);
    return s;
  }
  Checkin(fd);
  return s;
}

Status Client::RoundtripOnFd(int fd, Opcode op,
                             const std::vector<uint8_t> &payload,
                             uint64_t request_id, Frame *out) {
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(op), request_id, payload);
  Status s = SendAll(fd, frame.data(), frame.size());
  if (s.ok()) {
    uint8_t header[kHeaderBytes];
    s = RecvAll(fd, header, sizeof(header));
    if (s.ok()) {
      FrameDecoder decoder;
      decoder.Feed(header, sizeof(header));
      Frame probe;
      FrameDecoder::Outcome outcome = decoder.Next(&probe);
      if (outcome == FrameDecoder::Outcome::kBadMagic ||
          outcome == FrameDecoder::Outcome::kBadVersion ||
          outcome == FrameDecoder::Outcome::kOversized) {
        s = Status::IoError("malformed response header");
      } else {
        // Header parsed; pull the payload length back out of the raw bytes
        // to read the body in one pass.
        uint32_t payload_len;
        std::memcpy(&payload_len, header + 16, 4);
        std::vector<uint8_t> body(payload_len);
        s = payload_len > 0 ? RecvAll(fd, body.data(), body.size())
                            : Status::Ok();
        if (s.ok()) {
          decoder.Feed(body.data(), body.size());
          outcome = decoder.Next(out);
          if (outcome == FrameDecoder::Outcome::kBadCrc) {
            s = Status::IoError("response checksum mismatch");
          } else if (outcome != FrameDecoder::Outcome::kFrame) {
            s = Status::IoError("malformed response frame");
          } else if (out->request_id != request_id || !out->IsResponse()) {
            // A stale or misrouted frame means this connection's stream
            // state is unknown — treat as transport failure.
            s = Status::IoError("response does not match request");
          }
        }
      }
    }
  }
  return s;
}

Status Client::Roundtrip(Opcode op, const std::vector<uint8_t> &payload,
                         Frame *out) {
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  Status final_status = Status::Ok();
  bool first = true;
  const auto attempt = [&]() -> Status {
    if (!first) n_retries_.fetch_add(1, std::memory_order_relaxed);
    first = false;
    Status s = TryOnce(op, payload, request_id, out);
    if (!s.ok()) {
      final_status = s;
      return s;  // transport failure: retryable
    }
    if (options_.retry_busy) {
      WireCode code;
      std::string message;
      size_t offset;
      if (DecodeResponseHead(out->payload, &code, &message, &offset) &&
          IsBusyCode(code)) {
        final_status = WireCodeToStatus(code, message);
        return final_status;  // transient overload: retryable when opted in
      }
    }
    final_status = Status::Ok();
    return Status::Ok();
  };
  // A per-request jitter rng keeps a shared Client lock-free across
  // concurrent requests while staying deterministic per (seed, request id).
  Rng jitter(options_.rng_seed ^ request_id);
  RetryWithBackoff(options_.retry, attempt, &jitter);
  return final_status;
}

template <typename Body>
Result<Body> Client::Call(Opcode op, const std::vector<uint8_t> &payload) {
  Frame response;
  const Status s = Roundtrip(op, payload, &response);
  if (!s.ok()) return s;
  WireCode code;
  std::string message;
  size_t offset;
  if (!DecodeResponseHead(response.payload, &code, &message, &offset)) {
    return Status::IoError(std::string("malformed ") + OpcodeName(op) +
                           " response");
  }
  if (code != WireCode::kOk) return WireCodeToStatus(code, message);
  Body body{};
  if constexpr (!std::is_same_v<Body, NoBody>) {
    if (!Decode(response.payload, offset, &body)) {
      return Status::IoError(std::string("malformed ") + OpcodeName(op) +
                             " response body");
    }
  }
  return body;
}

Status Client::Ping() { return Call<NoBody>(Opcode::kPing, {}).status(); }

Status Client::Sleep(uint32_t millis) {
  return Call<NoBody>(Opcode::kSleep, Encode(millis)).status();
}

Result<RemoteQueryResult> Client::ExecuteSql(const std::string &sql) {
  return Call<RemoteQueryResult>(Opcode::kSqlQuery, Encode(sql));
}

Result<RemotePrediction> Client::PredictOus(
    const std::vector<TranslatedOu> &ous) {
  return Call<RemotePrediction>(Opcode::kPredictOus, Encode(ous));
}

Result<std::string> Client::GetMetricsJson() {
  return Call<std::string>(Opcode::kGetMetrics, {});
}

Result<HealthInfo> Client::Health() {
  return Call<HealthInfo>(Opcode::kHealth, {});
}

Result<CtrlStatusBody> Client::CtrlStatus() {
  return Call<CtrlStatusBody>(Opcode::kCtrlStatus, {});
}

Result<ReplSubscribeResponseBody> Client::ReplSubscribe(
    const ReplSubscribeRequest &req) {
  return Call<ReplSubscribeResponseBody>(Opcode::kReplSubscribe, Encode(req));
}

Result<ReplLogBatchBody> Client::ReplFetch(const ReplFetchRequest &req) {
  return Call<ReplLogBatchBody>(Opcode::kReplLogBatch, Encode(req));
}

Status Client::ReplAck(const ReplAckRequest &req) {
  return Call<NoBody>(Opcode::kReplAck, Encode(req)).status();
}

Client::Stats Client::stats() const {
  Stats out;
  out.requests = n_requests_.load(std::memory_order_relaxed);
  out.retries = n_retries_.load(std::memory_order_relaxed);
  out.reconnects = n_reconnects_.load(std::memory_order_relaxed);
  out.pool_flushes = n_pool_flushes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mb2::net
