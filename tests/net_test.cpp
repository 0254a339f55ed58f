// End-to-end tests for the network service layer (src/net): loopback
// server + client covering remote SQL and remote model serving (bit-identical
// to in-process predictions), concurrent clients, admission control
// (load-shed + deadline expiry), graceful drain, fd hygiene, fault-injected
// socket failures exercising the client's retry/backoff path, and race-free
// hot-tuning of the net_* knobs mid-traffic (the TSan target).

#include <dirent.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "database.h"
#include "gtest/gtest.h"
#include "modeling/model_bot.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"

namespace mb2::net {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

size_t OpenFdCount() {
  size_t n = 0;
  DIR *dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) n++;
  closedir(dir);  // (count includes ".", "..", and the DIR's own fd — fine
  return n;       //  for before/after comparisons)
}

/// Loopback server over a real Database and a ModelBot trained on synthetic
/// linear data for two OU types (same construction as OuCacheTest, so the
/// in-process predictions we compare against are deterministic).
class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    bot_ = std::make_unique<ModelBot>(&db_->catalog(), &db_->estimator(),
                                      &db_->settings());
    std::vector<OuRecord> records;
    for (OuType type : {OuType::kSeqScan, OuType::kIdxScan}) {
      for (const FeatureVector &f : DistinctFeatures(type)) {
        for (int o = 0; o < 3; o++) {
          OuRecord r;
          r.ou = type;
          r.features = f;
          for (size_t j = 0; j < kNumLabels; j++) {
            double v = 1.0;
            for (double q : f) v += (1.0 + 0.2 * j) * q;
            r.labels[j] = v;
          }
          records.push_back(std::move(r));
        }
      }
    }
    bot_->TrainOuModels(records, {MlAlgorithm::kLinear}, /*normalize=*/false);

    ServerOptions opts;
    opts.num_reactors = 2;
    opts.num_workers = 4;
    opts.queue_depth = 256;
    opts.default_deadline_ms = 60'000;
    server_ = std::make_unique<Server>(db_.get(), bot_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    FaultInjector::Instance().Reset();
    if (server_) server_->Stop();
  }

  static std::vector<FeatureVector> DistinctFeatures(OuType type) {
    const size_t d = GetOuDescriptor(type).feature_names.size();
    std::vector<FeatureVector> out;
    for (size_t i = 0; i < 8; i++) {
      FeatureVector f(d);
      for (size_t j = 0; j < d; j++) {
        f[j] = 1.0 + static_cast<double>((3 * i + 5 * j) % 16);
      }
      out.push_back(std::move(f));
    }
    return out;
  }

  std::vector<TranslatedOu> MakeOus() const {
    std::vector<TranslatedOu> ous;
    for (OuType type : {OuType::kSeqScan, OuType::kIdxScan}) {
      for (const FeatureVector &f : DistinctFeatures(type)) {
        ous.push_back({type, f});
      }
    }
    return ous;
  }

  ClientOptions MakeClientOptions() const {
    ClientOptions copts;
    copts.port = server_->port();
    return copts;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ModelBot> bot_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetTest, PingStatsAndSessionAccounting) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());

  const ServerStats stats = server_->stats();
  EXPECT_GE(stats.requests, 2u);
  EXPECT_GE(stats.accepted, 1u);
  EXPECT_GE(stats.active_connections, 1u);  // pooled connection stays open
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

TEST_F(NetTest, PooledConnectionsSurviveServerRestart) {
  ClientOptions copts = MakeClientOptions();
  copts.retry.max_attempts = 1;  // restart recovery must cost zero retries
  Client client(copts);
  ASSERT_TRUE(client.Ping().ok());  // pools a live connection

  // Restart the server on the same port; every pooled socket dies with it.
  const uint16_t port = server_->port();
  server_->Stop();
  ServerOptions sopts;
  sopts.num_reactors = 2;
  sopts.num_workers = 4;
  sopts.port = port;
  server_ = std::make_unique<Server>(db_.get(), bot_.get(), sopts);
  ASSERT_TRUE(server_->Start().ok());

  // The next request finds the stale socket, flushes the pool, and redials
  // within the same attempt — it must succeed even with max_attempts=1.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());
  const Client::Stats stats = client.stats();
  EXPECT_GE(stats.pool_flushes, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST_F(NetTest, NotPrimaryResponseSurfacesAsUnavailable) {
  // A read-only replica answers writes with NOT_PRIMARY. Unlike a transport
  // error this is a role answer from a live node: it decodes to
  // kUnavailable (re-resolve the primary) and burns no transport retries.
  db_->set_read_only(true);
  Client client(MakeClientOptions());
  auto result = client.ExecuteSql("CREATE TABLE nope (id INTEGER)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(client.stats().retries, 0u);

  db_->set_read_only(false);
  EXPECT_TRUE(client.ExecuteSql("CREATE TABLE yep (id INTEGER)").ok());
}

TEST_F(NetTest, SqlEndToEndOverTheWire) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(
      client.ExecuteSql("CREATE TABLE kv (k INTEGER, v VARCHAR)").ok());
  for (int i = 0; i < 5; i++) {
    const auto r = client.ExecuteSql("INSERT INTO kv VALUES (" +
                                     std::to_string(i) + ", 'row" +
                                     std::to_string(i) + "')");
    ASSERT_TRUE(r.ok()) << r.status().message();
  }
  auto rows = client.ExecuteSql("SELECT k, v FROM kv WHERE k >= 3");
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows.value().aborted);
  EXPECT_GT(rows.value().elapsed_us, 0.0);
  ASSERT_EQ(rows.value().rows.size(), 2u);
  for (const Tuple &row : rows.value().rows) {
    const int64_t k = row[0].AsInt();
    EXPECT_GE(k, 3);
    EXPECT_EQ(row[1].AsVarchar(), "row" + std::to_string(k));
  }

  // The remote writes hit the same engine the embedded path sees.
  auto local = db_->Execute("SELECT k FROM kv");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value().batch.rows.size(), 5u);

  // Engine errors come back as typed Status, not transport failures.
  const auto bad = client.ExecuteSql("SELECT * FROM no_such_table");
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().message().empty());
  const auto junk = client.ExecuteSql("THIS IS NOT SQL");
  ASSERT_FALSE(junk.ok());
}

TEST_F(NetTest, BadOrderByIsBadRequestAndServerKeepsServing) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client
                  .ExecuteSql("CREATE TABLE fact (id INTEGER, qty INTEGER, "
                              "val DOUBLE, tag VARCHAR)")
                  .ok());
  ASSERT_TRUE(client.ExecuteSql("INSERT INTO fact VALUES (1, 2, 3.0, 'x')").ok());
  // A bad statement is the client's error; the server must keep serving.
  const char *bad_statements[] = {
      "SELECT qty, id FROM fact ORDER BY 0",
      "SELECT id FROM fact WHERE tag = 5",                 // VARCHAR vs number
      "SELECT tag + 1 FROM fact",
      "SELECT MIN(tag) FROM fact",
      "UPDATE fact SET id = 'x'",
      "SELECT id FROM fact WHERE id = 9223372036854775808",  // out of range
      "SELECT id FROM fact WHERE id = 1.2.3",
  };
  for (const char *statement : bad_statements) {
    const auto bad = client.ExecuteSql(statement);
    ASSERT_FALSE(bad.ok()) << statement;
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument)  // BAD_REQUEST
        << statement << ": " << bad.status().ToString();
    EXPECT_TRUE(client.Ping().ok()) << statement;
  }
  // Statements that once killed the server answer instead: INT64_MIN / -1
  // wraps to INT64_MIN, and COUNT of a VARCHAR counts rows.
  const auto wrapped =
      client.ExecuteSql("SELECT (id - 9223372036854775807 - 2) / -1 FROM fact");
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  ASSERT_EQ(wrapped.value().rows.size(), 1u);
  EXPECT_EQ(wrapped.value().rows[0][0].AsInt(), INT64_MIN);
  EXPECT_TRUE(client.Ping().ok());
  const auto counted = client.ExecuteSql("SELECT COUNT(tag) FROM fact");
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  ASSERT_EQ(counted.value().rows.size(), 1u);
  EXPECT_EQ(counted.value().rows[0][0].AsInt(), 1);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, EveryOpcodeLandsInItsOwnMetricSeries) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  MetricsRegistry &registry = MetricsRegistry::Instance();
  const std::vector<std::string> names = {
      "PING", "SQL_QUERY", "PREDICT_OUS", "GET_METRICS", "SLEEP",
      "REPL_SUBSCRIBE", "REPL_LOG_BATCH", "REPL_ACK", "HEALTH", "CTRL_STATUS"};
  std::vector<std::pair<Counter *, Histogram *>> series;
  std::vector<std::pair<uint64_t, uint64_t>> before;
  for (const std::string &name : names) {
    const std::string label = "{opcode=\"" + name + "\"}";
    series.emplace_back(
        &registry.GetCounter("mb2_net_requests_total" + label),
        &registry.GetHistogram("mb2_net_request_latency_us" + label));
    before.emplace_back(series.back().first->Value(),
                        series.back().second->Count());
  }

  // One request per opcode; the replication ones are refused (this server
  // has no replication service) but still count as requests.
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.ExecuteSql("CREATE TABLE op (a INTEGER)").ok());
  EXPECT_TRUE(client.PredictOus(MakeOus()).ok());
  EXPECT_TRUE(client.GetMetricsJson().ok());
  EXPECT_TRUE(client.Sleep(1).ok());
  (void)client.ReplSubscribe({"r", 0});
  (void)client.ReplFetch({"r", 0, 1024, 0});
  (void)client.ReplAck({"r", 0, 0});
  EXPECT_TRUE(client.Health().ok());
  EXPECT_TRUE(client.CtrlStatus().ok());

  // Latency is observed after the response is sent: wait for it briefly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (size_t i = 0; i < series.size(); i++) {
    while (series[i].second->Count() == before[i].second &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(series[i].first->Value(), before[i].first + 1) << names[i];
    EXPECT_EQ(series[i].second->Count(), before[i].second + 1) << names[i];
  }
  EXPECT_EQ(DumpMetricsText().find("opcode=\"UNKNOWN\""), std::string::npos);
  obs::SetEnabled(was_enabled);
}

TEST_F(NetTest, RemotePredictionsBitIdenticalToInProcess) {
  const std::vector<TranslatedOu> ous = MakeOus();
  const std::vector<Labels> local = bot_->PredictOus(ous);

  Client client(MakeClientOptions());
  const auto remote = client.PredictOus(ous);
  ASSERT_TRUE(remote.ok()) << remote.status().message();
  EXPECT_EQ(remote.value().degraded_ous, 0u);
  ASSERT_EQ(remote.value().per_ou.size(), local.size());
  for (size_t i = 0; i < local.size(); i++) {
    for (size_t j = 0; j < kNumLabels; j++) {
      EXPECT_EQ(BitsOf(remote.value().per_ou[i][j]), BitsOf(local[i][j]))
          << "ou " << i << " label " << j;
    }
  }

  // An OU type with no trained model is served degraded, mirroring the
  // in-process behavior.
  std::vector<TranslatedOu> untrained;
  untrained.push_back(
      {OuType::kSortBuild,
       FeatureVector(GetOuDescriptor(OuType::kSortBuild).feature_names.size(),
                     2.0)});
  const auto degraded = client.PredictOus(untrained);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value().degraded_ous, 1u);

  // A feature vector of the wrong width is a client error, not a crash.
  const auto malformed =
      client.PredictOus({{OuType::kSeqScan, FeatureVector{1.0}}});
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(NetTest, GetMetricsReturnsJson) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());  // generate at least one net metric
  const auto json = client.GetMetricsJson();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().find('{'), std::string::npos);
}

TEST_F(NetTest, ConcurrentClientsMixedWorkload) {
  ASSERT_TRUE(
      db_->Execute("CREATE TABLE c (a INTEGER)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO c VALUES (1)").ok());

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 25;
  Client shared(MakeClientOptions());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Half the threads share one Client (exercising the pool), half own
      // their connection pool.
      std::unique_ptr<Client> own;
      Client *client = &shared;
      if (t % 2 == 0) {
        own = std::make_unique<Client>(MakeClientOptions());
        client = own.get();
      }
      const std::vector<TranslatedOu> ous = MakeOus();
      for (int i = 0; i < kOpsPerThread; i++) {
        switch (i % 3) {
          case 0:
            if (!client->Ping().ok()) failures.fetch_add(1);
            break;
          case 1: {
            const auto r = client->ExecuteSql("SELECT a FROM c");
            if (!r.ok() || r.value().rows.size() != 1) failures.fetch_add(1);
            break;
          }
          default:
            if (!client->PredictOus(ous).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto &thr : threads) thr.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->stats().requests,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
}

// --- Admission control ------------------------------------------------------

TEST(NetAdmissionTest, QueueFullShedsWithServerBusy) {
  Database db;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_depth = 1;
  opts.default_deadline_ms = 60'000;
  Server server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  std::thread occupant([&] {
    Client c(copts);
    EXPECT_TRUE(c.Sleep(500).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // No retry: the shed must be visible as a typed SERVER_BUSY error.
  ClientOptions no_retry = copts;
  no_retry.retry.max_attempts = 1;
  Client probe(no_retry);
  const Status shed = probe.Ping();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), ErrorCode::kAborted);
  EXPECT_NE(shed.message().find("SERVER_BUSY"), std::string::npos);
  EXPECT_GE(server.stats().shed, 1u);

  // With retry_busy opted in, backoff rides out the load and succeeds.
  ClientOptions patient = copts;
  patient.retry_busy = true;
  patient.retry.max_attempts = 200;
  patient.retry.max_backoff_us = 50'000;
  Client waiter(patient);
  EXPECT_TRUE(waiter.Ping().ok());

  occupant.join();
  server.Stop();
}

TEST(NetAdmissionTest, QueuedRequestPastDeadlineIsRejected) {
  Database db;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_depth = 64;
  opts.default_deadline_ms = 100;
  Server server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  copts.retry.max_attempts = 1;
  std::thread occupant([&] {
    Client c(copts);
    // Dispatched immediately (the deadline is checked when a worker picks
    // the request up, which happens right away for the first one).
    EXPECT_TRUE(c.Sleep(600).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Queued behind the sleeper; by the time the worker frees up (~600 ms)
  // its 100 ms deadline has long passed.
  Client late(copts);
  const Status expired = late.Sleep(1);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.code(), ErrorCode::kAborted);
  EXPECT_NE(expired.message().find("DEADLINE_EXCEEDED"), std::string::npos);
  EXPECT_GE(server.stats().deadline_expired, 1u);

  occupant.join();
  server.Stop();
}

// --- Graceful drain ---------------------------------------------------------

TEST(NetDrainTest, InFlightCompleteNewConnectionsRefused) {
  Database db;
  ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_depth = 64;
  opts.default_deadline_ms = 60'000;
  auto server = std::make_unique<Server>(&db, nullptr, opts);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  std::atomic<int> ok_count{0};
  std::vector<std::thread> inflight;
  for (int i = 0; i < 2; i++) {
    inflight.emplace_back([&] {
      ClientOptions copts;
      copts.port = port;
      copts.retry.max_attempts = 1;
      Client c(copts);
      if (c.Sleep(300).ok()) ok_count.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server->Stop();  // must wait for both sleeps and flush their responses

  for (auto &thr : inflight) thr.join();
  EXPECT_EQ(ok_count.load(), 2);
  EXPECT_EQ(server->stats().active_connections, 0u);

  // The listener is gone: fresh connections are refused.
  ClientOptions copts;
  copts.port = port;
  copts.retry.max_attempts = 2;
  Client refused(copts);
  EXPECT_FALSE(refused.Ping().ok());
}

TEST(NetDrainTest, ServerLifecycleLeaksNoFds) {
  // Warm up lazily-created process state (obs registry, etc.) so the
  // before/after comparison only sees the server's own descriptors.
  {
    Database db;
    Server warm(&db, nullptr, ServerOptions{});
    ASSERT_TRUE(warm.Start().ok());
    ClientOptions copts;
    copts.port = warm.port();
    Client c(copts);
    ASSERT_TRUE(c.Ping().ok());
    warm.Stop();
  }

  const size_t before = OpenFdCount();
  {
    Database db;
    ServerOptions opts;
    opts.num_reactors = 3;
    Server server(&db, nullptr, opts);
    ASSERT_TRUE(server.Start().ok());
    ClientOptions copts;
    copts.port = server.port();
    for (int i = 0; i < 3; i++) {
      Client c(copts);
      EXPECT_TRUE(c.Ping().ok());
      EXPECT_TRUE(c.ExecuteSql("CREATE TABLE t" + std::to_string(i) +
                               " (a INTEGER)")
                      .ok());
    }
    server.Stop();
  }
  EXPECT_EQ(OpenFdCount(), before);
}

TEST(NetDrainTest, StopIsIdempotentAndSafeWithoutStart) {
  Database db;
  {
    Server never_started(&db, nullptr, ServerOptions{});
    never_started.Stop();  // must be a no-op
  }
  Server server(&db, nullptr, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // second call is a no-op
  EXPECT_FALSE(server.running());
}

// --- Fault injection --------------------------------------------------------

class NetFaultTest : public NetTest {};

TEST_F(NetFaultTest, TransientReadFaultsSurvivedByRetry) {
  auto &injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.max_fires = 2;  // first two reads drop the connection, then heal
  injector.Arm(fault_point::kNetRead, spec);

  ClientOptions copts = MakeClientOptions();
  copts.retry.max_attempts = 5;
  Client client(copts);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(injector.FireCount(fault_point::kNetRead), 2u);
  EXPECT_GE(client.stats().retries, 2u);
  EXPECT_GE(client.stats().reconnects, 3u);  // initial dial + one per drop
}

TEST_F(NetFaultTest, PermanentReadFaultSurfacesTypedStatus) {
  auto &injector = FaultInjector::Instance();
  injector.Arm(fault_point::kNetRead, FaultSpec{});  // unlimited fires

  ClientOptions copts = MakeClientOptions();
  copts.retry.max_attempts = 3;
  copts.retry.base_backoff_us = 50;
  Client client(copts);
  const Status s = client.Ping();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  EXPECT_GE(injector.FireCount(fault_point::kNetRead), 3u);
}

TEST_F(NetFaultTest, AcceptFaultForcesReconnect) {
  auto &injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.max_fires = 1;  // first accepted connection is dropped immediately
  injector.Arm(fault_point::kNetAccept, spec);

  ClientOptions copts = MakeClientOptions();
  copts.retry.max_attempts = 4;
  Client client(copts);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(injector.FireCount(fault_point::kNetAccept), 1u);
}

TEST_F(NetFaultTest, TransientWriteFaultSurvivedByRetry) {
  auto &injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.max_fires = 1;
  injector.Arm(fault_point::kNetWrite, spec);

  ClientOptions copts = MakeClientOptions();
  copts.retry.max_attempts = 4;
  Client client(copts);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(injector.FireCount(fault_point::kNetWrite), 1u);
}

// --- Hot knob changes under traffic (the TSan target) -----------------------

TEST(NetKnobTest, HotChangingKnobsMidTrafficIsRaceFree) {
  Database db;
  ServerOptions opts;
  opts.num_reactors = 2;
  // 0 = read the knobs live: worker count once at Start, queue depth and
  // deadline on every admission decision.
  opts.num_workers = 0;
  opts.queue_depth = 0;
  opts.default_deadline_ms = 0;
  Server server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; t++) {
    traffic.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = server.port();
      copts.retry.max_attempts = 1;
      Client client(copts);
      while (!stop.load()) {
        const Status s = (t % 2 == 0) ? client.Ping() : client.Sleep(1);
        // Under a shrunken queue or a 1 ms deadline, SERVER_BUSY /
        // DEADLINE_EXCEEDED (both typed kAborted) are legitimate outcomes;
        // anything else is a bug.
        if (!s.ok() && s.code() != ErrorCode::kAborted) {
          unexpected.fetch_add(1);
        }
      }
    });
  }

  SettingsManager &settings = db.settings();
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(settings.SetInt("net_queue_depth", (i % 2 == 0) ? 1 : 256).ok());
    ASSERT_TRUE(
        settings.SetInt("net_default_deadline_ms", (i % 2 == 0) ? 1 : 1000)
            .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto &thr : traffic) thr.join();
  EXPECT_EQ(unexpected.load(), 0);

  // Settle the knobs generously; the server must still be fully healthy.
  ASSERT_TRUE(settings.SetInt("net_queue_depth", 256).ok());
  ASSERT_TRUE(settings.SetInt("net_default_deadline_ms", 60'000).ok());
  ClientOptions copts;
  copts.port = server.port();
  Client client(copts);
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

}  // namespace
}  // namespace mb2::net
