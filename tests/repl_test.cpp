// Replication tests: LogApplier idempotence/overlap/gap semantics, the
// primary->follower shipping pipeline over loopback, follower read
// admission, restart resume from the local log copy, and promotion.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "database.h"
#include "net/failover_client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "repl/health.h"
#include "repl/replication.h"
#include "wal/log_applier.h"
#include "wal/log_recovery.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

Schema TestSchema() {
  return Schema({{"id", TypeId::kInteger, 0},
                 {"payload", TypeId::kVarchar, 8},
                 {"bal", TypeId::kDouble, 0}});
}

std::vector<Tuple> Dump(Database *db, const std::string &table) {
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = table;
  auto sort = std::make_unique<SortPlan>();
  sort->sort_keys = {0};
  sort->descending = {false};
  sort->children.push_back(std::move(scan));
  PlanPtr plan = FinalizePlan(std::move(sort), db->catalog());
  return db->Execute(*plan).batch.rows;
}

bool SameRows(const std::vector<Tuple> &a, const std::vector<Tuple> &b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); j++) {
      if (!(a[i][j] == b[i][j])) return false;
    }
  }
  return true;
}

/// Writes a 60-record history (inserts, updates, deletes) through a
/// WAL-enabled database and returns the log bytes.
std::vector<uint8_t> MakeLog(const std::string &path) {
  {
    Database::Options options;
    options.wal_path = path;
    Database db(options);
    db.catalog().CreateTable("t", TestSchema());
    Table *t = db.catalog().GetTable("t");
    auto txn = db.txn_manager().Begin();
    for (int64_t i = 0; i < 40; i++) {
      t->Insert(txn.get(), {Value::Integer(i),
                            Value::Varchar("row" + std::to_string(i)),
                            Value::Double(i * 1.5)});
    }
    db.txn_manager().Commit(txn.get());
    auto txn2 = db.txn_manager().Begin();
    Tuple row;
    for (SlotId s = 0; s < 10; s++) {
      EXPECT_TRUE(t->Select(txn2.get(), s, &row));
      row[2] = Value::Double(-1.0);
      EXPECT_TRUE(t->Update(txn2.get(), s, row).ok());
    }
    for (SlotId s = 30; s < 40; s++) {
      EXPECT_TRUE(t->Delete(txn2.get(), s).ok());
    }
    db.txn_manager().Commit(txn2.get());
    db.log_manager().FlushNow();
  }
  FILE *f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

class LogApplierTest : public ::testing::Test {
 protected:
  TempDir tmp_;
  const std::string log_path_ = tmp_.File("applier.log");
};

TEST_F(LogApplierTest, SameLogTwiceIsIdempotent) {
  const std::vector<uint8_t> log = MakeLog(log_path_);

  // Reference: one straight replay.
  Database ref;
  ref.catalog().CreateTable("t", TestSchema());
  ASSERT_TRUE(ReplayLog(log_path_, &ref.catalog(), &ref.txn_manager()).ok());

  Database db;
  db.catalog().CreateTable("t", TestSchema());
  db.catalog().CreateIndex({"pk_t", "t", {0}, true});
  LogApplier applier(&db.catalog(), &db.txn_manager());
  ASSERT_TRUE(applier.Apply(0, log.data(), log.size()).ok());
  // The same bytes again, from offset 0: a full-duplicate batch.
  ASSERT_TRUE(applier.Apply(0, log.data(), log.size()).ok());
  EXPECT_EQ(applier.total().inserts, 40u);
  EXPECT_EQ(applier.total().updates, 10u);
  EXPECT_EQ(applier.total().deletes, 10u);

  EXPECT_TRUE(SameRows(Dump(&db, "t"), Dump(&ref, "t")));
  // The index was not double-inserted either: a point lookup is unique.
  auto scan = std::make_unique<IndexScanPlan>();
  scan->index = "pk_t";
  scan->table = "t";
  scan->key_lo = {Value::Integer(5)};
  PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());
  EXPECT_EQ(db.Execute(*plan).batch.rows.size(), 1u);
}

TEST_F(LogApplierTest, OverlappingBatchesAfterRestartMatchStraightReplay) {
  const std::vector<uint8_t> log = MakeLog(log_path_);

  Database ref;
  ref.catalog().CreateTable("t", TestSchema());
  ASSERT_TRUE(ReplayLog(log_path_, &ref.catalog(), &ref.txn_manager()).ok());

  // A follower restart: the fresh applier re-reads its whole local copy
  // (the prefix), then fetches from a conservative offset so the next
  // batch overlaps what it already applied.
  const size_t prefix = log.size() / 2;
  const size_t resume = prefix / 2;  // deep overlap
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  LogApplier applier(&db.catalog(), &db.txn_manager());
  ASSERT_TRUE(applier.Apply(0, log.data(), prefix).ok());
  ASSERT_TRUE(
      applier.Apply(resume, log.data() + resume, log.size() - resume).ok());
  EXPECT_EQ(applier.stream_offset(), log.size());

  EXPECT_TRUE(SameRows(Dump(&db, "t"), Dump(&ref, "t")));
  EXPECT_EQ(applier.total().inserts, 40u);
}

TEST_F(LogApplierTest, GapIsRejectedWithoutConsumingAnything) {
  const std::vector<uint8_t> log = MakeLog(log_path_);
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  LogApplier applier(&db.catalog(), &db.txn_manager());
  const size_t half = log.size() / 2;
  ASSERT_TRUE(applier.Apply(0, log.data(), half).ok());
  const uint64_t at = applier.stream_offset();

  // Bytes starting past the consumed tip would silently drop records.
  const Status gap = applier.Apply(half + 7, log.data() + half + 7, 16);
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(applier.stream_offset(), at);

  // The stream is still usable from the correct offset.
  ASSERT_TRUE(applier.Apply(half, log.data() + half, log.size() - half).ok());
  EXPECT_EQ(applier.stream_offset(), log.size());
}

TEST_F(LogApplierTest, SingleByteBatchesApplyEverything) {
  const std::vector<uint8_t> log = MakeLog(log_path_);
  Database ref;
  ref.catalog().CreateTable("t", TestSchema());
  ASSERT_TRUE(ReplayLog(log_path_, &ref.catalog(), &ref.txn_manager()).ok());

  // Worst-case batching: every record is split across many batches.
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  LogApplier applier(&db.catalog(), &db.txn_manager());
  for (size_t i = 0; i < log.size(); i++) {
    ASSERT_TRUE(applier.Apply(i, &log[i], 1).ok());
  }
  EXPECT_FALSE(applier.has_partial_record());
  EXPECT_TRUE(SameRows(Dump(&db, "t"), Dump(&ref, "t")));
}

TEST_F(LogApplierTest, TornTailStaysBufferedUntilCompleted) {
  const std::vector<uint8_t> log = MakeLog(log_path_);
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  LogApplier applier(&db.catalog(), &db.txn_manager());
  ASSERT_TRUE(applier.Apply(0, log.data(), log.size() - 5).ok());
  EXPECT_TRUE(applier.has_partial_record());
  EXPECT_LT(applier.applied_offset(), applier.stream_offset());
  ASSERT_TRUE(applier.Apply(log.size() - 5, log.data() + log.size() - 5, 5).ok());
  EXPECT_FALSE(applier.has_partial_record());
  EXPECT_EQ(applier.applied_offset(), log.size());
}

/// Primary + follower pair over loopback, with the primary serving
/// replication from its live WAL.
class ReplicationPairTest : public ::testing::Test {
 protected:
  // First member, so the directory outlives the nodes writing into it.
  TempDir tmp_;
  const std::string primary_wal_ = tmp_.File("primary.wal");
  const std::string copy_wal_ = tmp_.File("copy.wal");

  void SetUp() override {
    Database::Options popts;
    popts.wal_path = primary_wal_;
    primary_ = std::make_unique<Database>(popts);
    primary_->settings().SetInt("wal_sync_commit", 1);
    primary_->Execute("CREATE TABLE t (id INTEGER, payload VARCHAR(8), bal DOUBLE)");

    source_ = std::make_unique<repl::ReplicationSource>(primary_.get());
    net::ServerOptions sopts;
    sopts.num_reactors = 1;
    sopts.num_workers = 2;
    server_ = std::make_unique<net::Server>(primary_.get(), nullptr, sopts);
    server_->set_repl_service(source_.get());
    ASSERT_TRUE(server_->Start().ok());

    follower_ = std::make_unique<Database>();
    follower_->Execute("CREATE TABLE t (id INTEGER, payload VARCHAR(8), bal DOUBLE)");
    repl::ReplicaNodeOptions ropts;
    ropts.replica_id = "r1";
    ropts.primary_port = server_->port();
    ropts.wal_copy_path = copy_wal_;
    node_ = std::make_unique<repl::ReplicaNode>(follower_.get(), ropts);
    ASSERT_TRUE(node_->Bootstrap().ok());
  }

  void TearDown() override {
    node_.reset();
    if (server_) server_->Stop();
  }

  void CatchUp(repl::ReplicaNode *node) {
    for (int i = 0; i < 1000; i++) {
      uint64_t applied = 0;
      ASSERT_TRUE(node->PollOnce(&applied).ok());
      if (applied == 0 &&
          node->applied_offset() >= source_->durable_tip()) {
        return;
      }
    }
    FAIL() << "follower never caught up";
  }

  std::unique_ptr<Database> primary_;
  std::unique_ptr<repl::ReplicationSource> source_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<Database> follower_;
  std::unique_ptr<repl::ReplicaNode> node_;
};

TEST_F(ReplicationPairTest, FollowerReadsAreIdenticalToPrimary) {
  obs::SetEnabled(true);
  for (int i = 0; i < 25; i++) {
    auto r = primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", 'p" + std::to_string(i) + "', " +
                               std::to_string(i * 2.5) + ")");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  primary_->Execute("DELETE FROM t WHERE id = 3");
  primary_->Execute("UPDATE t SET bal = 77.0 WHERE id = 7");

  CatchUp(node_.get());
  EXPECT_TRUE(SameRows(Dump(primary_.get(), "t"), Dump(follower_.get(), "t")));

  // Follower admits reads but not writes.
  auto read = follower_->Execute("SELECT * FROM t WHERE id = 7");
  ASSERT_TRUE(read.ok());
  auto write = follower_->Execute("INSERT INTO t VALUES (99, 'x', 0.0)");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), ErrorCode::kUnavailable);

  // Lag gauges are wired into the text dump.
  const std::string text = DumpMetricsText();
  EXPECT_NE(text.find("mb2_repl_lag_bytes"), std::string::npos);
  EXPECT_NE(text.find("mb2_repl_lag_records"), std::string::npos);
  EXPECT_NE(text.find("mb2_repl_lag_ms"), std::string::npos);
  obs::SetEnabled(false);
}

TEST_F(ReplicationPairTest, FollowerRestartResumesFromLocalCopy) {
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", 'a', 1.0)")
                    .ok());
  }
  CatchUp(node_.get());
  const uint64_t applied_before = node_->applied_offset();
  node_.reset();  // follower process dies

  // More primary traffic while the follower is down.
  for (int i = 30; i < 45; i++) {
    ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", 'b', 2.0)")
                    .ok());
  }

  // Restarted follower: fresh db (in-memory state is gone), same log copy.
  follower_ = std::make_unique<Database>();
  follower_->Execute("CREATE TABLE t (id INTEGER, payload VARCHAR(8), bal DOUBLE)");
  repl::ReplicaNodeOptions ropts;
  ropts.replica_id = "r1";
  ropts.primary_port = server_->port();
  ropts.wal_copy_path = copy_wal_;
  node_ = std::make_unique<repl::ReplicaNode>(follower_.get(), ropts);
  ASSERT_TRUE(node_->Bootstrap().ok());
  EXPECT_EQ(node_->applied_offset(), applied_before);  // copy replayed

  CatchUp(node_.get());
  EXPECT_TRUE(SameRows(Dump(primary_.get(), "t"), Dump(follower_.get(), "t")));
}

TEST_F(ReplicationPairTest, PromotionReplaysToTipAndAdmitsWrites) {
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", 'c', 3.0)")
                    .ok());
  }
  // The follower is lagging (never polled) when the primary "dies":
  // promotion must still reach the durable tip via the shared log device.
  server_->Stop();
  const auto primary_rows = Dump(primary_.get(), "t");

  ASSERT_TRUE(node_->Promote(primary_wal_, tmp_.File("promoted.wal")).ok());
  EXPECT_TRUE(node_->promoted());
  EXPECT_GE(node_->epoch(), 2u);
  EXPECT_TRUE(SameRows(primary_rows, Dump(follower_.get(), "t")));

  // Write admission flipped atomically; the new primary logs for itself.
  auto write = follower_->Execute("INSERT INTO t VALUES (100, 'new', 9.0)");
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  EXPECT_EQ(Dump(follower_.get(), "t").size(), primary_rows.size() + 1);
  EXPECT_TRUE(follower_->log_manager().enabled());

  // Its HEALTH now reads primary with a bumped epoch.
  const net::HealthInfo info = node_->Health();
  EXPECT_EQ(info.role, 1);
  EXPECT_GE(info.epoch, 2u);
}

TEST_F(ReplicationPairTest, FailoverClientFollowsThePrimary) {
  ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (1, 'x', 1.0)").ok());
  CatchUp(node_.get());

  // Follower serves its own endpoint.
  net::ServerOptions fopts;
  fopts.num_reactors = 1;
  fopts.num_workers = 2;
  net::Server follower_server(follower_.get(), nullptr, fopts);
  follower_server.set_repl_service(node_.get());
  ASSERT_TRUE(follower_server.Start().ok());

  net::FailoverClientOptions cluster;
  net::ClientOptions ep;
  ep.port = server_->port();
  ep.retry.max_attempts = 1;
  cluster.endpoints.push_back(ep);
  ep.port = follower_server.port();
  cluster.endpoints.push_back(ep);
  cluster.resolve_timeout_ms = 2000;
  // The primary is stopped *before* the INSERT below is sent, so it cannot
  // have executed; at-least-once retry of DML is safe here and is what this
  // test opts into.
  cluster.retry_dml_on_transport_error = true;
  net::FailoverClient client(cluster);

  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.current(), 0u);

  // Primary dies; follower is promoted out-of-band; the client's next
  // write lands on the new primary without caller-side plumbing.
  server_->Stop();
  ASSERT_TRUE(node_->Promote(primary_wal_, tmp_.File("promoted.wal")).ok());
  auto routed = client.ExecuteSql("INSERT INTO t VALUES (2, 'y', 2.0)");
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(client.current(), 1u);
  EXPECT_EQ(client.failovers(), 1u);
  EXPECT_EQ(Dump(follower_.get(), "t").size(), 2u);

  follower_server.Stop();
}

TEST_F(ReplicationPairTest, DmlIsNotRetriedAfterTransportErrorByDefault) {
  ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (1, 'x', 1.0)").ok());
  CatchUp(node_.get());

  net::ServerOptions fopts;
  fopts.num_reactors = 1;
  fopts.num_workers = 2;
  net::Server follower_server(follower_.get(), nullptr, fopts);
  follower_server.set_repl_service(node_.get());
  ASSERT_TRUE(follower_server.Start().ok());

  net::FailoverClientOptions cluster;
  net::ClientOptions ep;
  ep.port = server_->port();
  ep.retry.max_attempts = 1;
  cluster.endpoints.push_back(ep);
  ep.port = follower_server.port();
  cluster.endpoints.push_back(ep);
  cluster.resolve_timeout_ms = 2000;
  net::FailoverClient client(cluster);
  ASSERT_TRUE(client.Ping().ok());

  server_->Stop();
  ASSERT_TRUE(node_->Promote(primary_wal_, tmp_.File("promoted.wal")).ok());

  // A write that dies in transport might have executed before the primary
  // fell over; without the opt-in it must surface the error, not silently
  // re-execute on the new primary.
  auto write = client.ExecuteSql("INSERT INTO t VALUES (2, 'y', 2.0)");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(Dump(follower_.get(), "t").size(), 1u);  // nothing double-applied

  // Routing still moved, so reads retry transparently and the caller's next
  // write goes straight to the new primary.
  EXPECT_EQ(client.current(), 1u);
  auto read = client.ExecuteSql("SELECT * FROM t");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  auto write2 = client.ExecuteSql("INSERT INTO t VALUES (3, 'z', 3.0)");
  ASSERT_TRUE(write2.ok()) << write2.status().ToString();
  EXPECT_EQ(Dump(follower_.get(), "t").size(), 2u);

  follower_server.Stop();
}

TEST_F(ReplicationPairTest, PromotedPrimaryServesTheContinuousStream) {
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", 'd', 4.0)")
                    .ok());
  }
  CatchUp(node_.get());
  server_->Stop();
  ASSERT_TRUE(node_->Promote(primary_wal_, tmp_.File("promoted.wal")).ok());
  const uint64_t base = node_->applied_offset();
  ASSERT_GT(base, 0u);

  // Post-promotion commits extend the same offset space: the durable tip
  // keeps counting from the inherited history, not from zero.
  follower_->settings().SetInt("wal_sync_commit", 1);
  ASSERT_TRUE(follower_->Execute("INSERT INTO t VALUES (500, 'n', 5.0)").ok());
  const net::HealthInfo health = node_->Health();
  EXPECT_EQ(health.role, 1);
  EXPECT_GT(health.durable_tip, base);

  // A surviving follower resumes with its old-coordinate offset and
  // receives the post-promotion bytes — not a silent "caught up".
  net::ReplFetchRequest req;
  req.replica_id = "survivor";
  req.offset = base;
  req.epoch = node_->epoch();
  net::ReplLogBatchBody batch;
  ASSERT_TRUE(node_->Fetch(req, &batch).ok());
  EXPECT_FALSE(batch.data.empty());
  EXPECT_EQ(batch.durable_tip, health.durable_tip);

  // Offsets below the base come out of the inherited history, byte-equal
  // to the old primary's log.
  req.offset = 0;
  req.max_bytes = 64;
  ASSERT_TRUE(node_->Fetch(req, &batch).ok());
  ASSERT_FALSE(batch.data.empty());
  FILE *old_wal = std::fopen(primary_wal_.c_str(), "rb");
  ASSERT_NE(old_wal, nullptr);
  std::vector<uint8_t> expect(batch.data.size());
  ASSERT_EQ(std::fread(expect.data(), 1, expect.size(), old_wal),
            expect.size());
  std::fclose(old_wal);
  EXPECT_EQ(batch.data, expect);

  // An offset beyond the durable tip is a divergent lineage: refused.
  req.offset = health.durable_tip + 1234;
  req.max_bytes = 0;
  EXPECT_FALSE(node_->Fetch(req, &batch).ok());

  // A fetch that has seen a newer epoch marks this node a stale primary.
  req.offset = 0;
  req.epoch = node_->epoch() + 1;
  const Status stale = node_->Fetch(req, &batch);
  EXPECT_EQ(stale.code(), ErrorCode::kUnavailable);

  // A brand-new follower starting at offset 0 converges to the *full*
  // history (pre- and post-promotion rows) with no seed copy.
  net::ServerOptions fopts;
  fopts.num_reactors = 1;
  fopts.num_workers = 2;
  net::Server promoted_server(follower_.get(), nullptr, fopts);
  promoted_server.set_repl_service(node_.get());
  ASSERT_TRUE(promoted_server.Start().ok());

  Database second;
  second.Execute("CREATE TABLE t (id INTEGER, payload VARCHAR(8), bal DOUBLE)");
  repl::ReplicaNodeOptions ropts;
  ropts.replica_id = "r2";
  ropts.primary_port = promoted_server.port();
  ropts.wal_copy_path = tmp_.File("copy2.wal");
  repl::ReplicaNode second_node(&second, ropts);
  ASSERT_TRUE(second_node.Bootstrap().ok());
  for (int i = 0; i < 1000; i++) {
    uint64_t applied = 0;
    ASSERT_TRUE(second_node.PollOnce(&applied).ok());
    if (applied == 0 && second_node.applied_offset() >= health.durable_tip) {
      break;
    }
  }
  EXPECT_GE(second_node.applied_offset(), health.durable_tip);
  EXPECT_TRUE(SameRows(Dump(follower_.get(), "t"), Dump(&second, "t")));
  promoted_server.Stop();
}

// Regression for count-based tip-history pruning: the source used to cap
// `tip_history_` at 256 entries, so a commit burst evicted the checkpoint a
// slow-but-healthy replica was still behind and mb2_repl_lag_ms collapsed
// to ~0. Pruning is now by age against `repl_replica_stale_ms`, so the old
// checkpoint survives the burst and the reported lag keeps growing.
TEST_F(ReplicationPairTest, LagSurvivesCommitBurstBeyondOldHistoryCap) {
  // A slow replica subscribes at 0 and never applies anything.
  net::ReplSubscribeRequest slow;
  slow.replica_id = "slow";
  net::ReplSubscribeResponseBody sub_out;
  ASSERT_TRUE(source_->Subscribe(slow, &sub_out).ok());
  // A fast replica acks every commit, making the source observe each tip.
  net::ReplSubscribeRequest fast;
  fast.replica_id = "fast";
  ASSERT_TRUE(source_->Subscribe(fast, &sub_out).ok());

  // One durable commit establishes the checkpoint the slow replica is
  // behind (wal_sync_commit=1: the tip advances with the statement).
  ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (0, 'x', 0.0)").ok());
  net::ReplAckRequest fast_ack;
  fast_ack.replica_id = "fast";
  fast_ack.applied_offset = source_->durable_tip();
  ASSERT_TRUE(source_->Ack(fast_ack).ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // Burst: 300 durable commits, each tip acked by the fast replica — more
  // observations than the old 256-entry cap could hold.
  for (int i = 1; i <= 300; i++) {
    ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", 'b', 1.0)")
                    .ok());
    fast_ack.applied_offset = source_->durable_tip();
    ASSERT_TRUE(source_->Ack(fast_ack).ok());
  }

  // The slow replica reports in, still at offset 0: its lag is the age of
  // the pre-sleep checkpoint, not of whatever survived a count-based prune.
  net::ReplAckRequest slow_ack;
  slow_ack.replica_id = "slow";
  slow_ack.applied_offset = 0;
  ASSERT_TRUE(source_->Ack(slow_ack).ok());
  EXPECT_GE(MetricsRegistry::Instance().GetGauge("mb2_repl_lag_ms").Value(),
            50.0);
}

TEST_F(ReplicationPairTest, DeadReplicaStopsPinningLagGauges) {
  // A second replica subscribes once and dies without ever acking.
  net::ReplSubscribeRequest ghost;
  ghost.replica_id = "ghost";
  net::ReplSubscribeResponseBody sub_out;
  ASSERT_TRUE(source_->Subscribe(ghost, &sub_out).ok());

  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(primary_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", 'g', 6.0)")
                    .ok());
  }
  // Once the ghost's last ack ages past the staleness window, the live
  // replica's acks alone drive the gauges back to zero.
  primary_->settings().SetInt("repl_replica_stale_ms", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  CatchUp(node_.get());
  EXPECT_EQ(
      MetricsRegistry::Instance().GetGauge("mb2_repl_lag_bytes").Value(), 0.0);
  EXPECT_EQ(
      MetricsRegistry::Instance().GetGauge("mb2_repl_lag_records").Value(),
      0.0);
}

}  // namespace
}  // namespace mb2
