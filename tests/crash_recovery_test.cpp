// Crash-simulation harness: arms each WAL fault point in turn, runs a
// deterministic workload, "crashes" (drops every in-memory buffer via
// LogManager::Crash), replays the surviving log bytes into a fresh database,
// and asserts the MVCC invariants hold on whatever prefix proved durable:
//   - row ids are unique,
//   - VisibleCount agrees with a full scan,
//   - every recovered row carries one of the values the workload could have
//     left for its id (no phantom or garbled data),
//   - the primary-key index answers point lookups consistently with the scan,
//   - replaying the same bytes twice yields byte-identical states.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "common/fault_injector.h"
#include "database.h"
#include "wal/log_recovery.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

// Deterministic workload, in three committed phases after the durable base:
//   base    : insert ids 0..29            (payload "row<i>", bal = i * 1.5)
//   inserts : insert ids 100..119
//   updates : ids 0..9  ->  bal = 999.0
//   deletes : ids 20..24 removed
constexpr int64_t kBaseRows = 30;
constexpr int64_t kNewLo = 100, kNewHi = 120;
constexpr int64_t kUpdatedBelow = 10;
constexpr int64_t kDeletedLo = 20, kDeletedHi = 25;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  TempDir tmp_;
  /// Per-test log path: ctest runs these tests as parallel processes, which
  /// must not clobber each other's "devices".
  std::string LogPath() const { return tmp_.File("crash.log"); }

  Schema TestSchema() {
    return Schema({{"id", TypeId::kInteger, 0},
                   {"payload", TypeId::kVarchar, 8},
                   {"bal", TypeId::kDouble, 0}});
  }

  Tuple Row(int64_t id, double bal) {
    return {Value::Integer(id), Value::Varchar("row" + std::to_string(id)),
            Value::Double(bal)};
  }

  /// Inserts the durable base and flushes it to the device (fault-free).
  Table *LoadBase(Database *db) {
    db->catalog().CreateTable("t", TestSchema());
    Table *t = db->catalog().GetTable("t");
    auto txn = db->txn_manager().Begin();
    for (int64_t i = 0; i < kBaseRows; i++) {
      t->Insert(txn.get(), Row(i, i * 1.5));
    }
    EXPECT_TRUE(db->txn_manager().Commit(txn.get()).ok());
    EXPECT_TRUE(db->log_manager().FlushNow().ok());
    return t;
  }

  /// The mutation phases that run with a fault armed. Base slots are 0..29
  /// in insert order, so slot == id for the update/delete targets.
  void RunMutations(Database *db, Table *t) {
    {
      auto txn = db->txn_manager().Begin();
      for (int64_t i = kNewLo; i < kNewHi; i++) {
        t->Insert(txn.get(), Row(i, i * 1.5));
      }
      ASSERT_TRUE(db->txn_manager().Commit(txn.get()).ok());
    }
    {
      auto txn = db->txn_manager().Begin();
      Tuple row;
      for (SlotId s = 0; s < kUpdatedBelow; s++) {
        ASSERT_TRUE(t->Select(txn.get(), s, &row));
        row[2] = Value::Double(999.0);
        ASSERT_TRUE(t->Update(txn.get(), s, row).ok());
      }
      ASSERT_TRUE(db->txn_manager().Commit(txn.get()).ok());
    }
    {
      auto txn = db->txn_manager().Begin();
      for (SlotId s = kDeletedLo; s < kDeletedHi; s++) {
        ASSERT_TRUE(t->Delete(txn.get(), s).ok());
      }
      ASSERT_TRUE(db->txn_manager().Commit(txn.get()).ok());
    }
  }

  std::vector<Tuple> Dump(Database *db) {
    auto scan = std::make_unique<SeqScanPlan>();
    scan->table = "t";
    auto sort = std::make_unique<SortPlan>();
    sort->sort_keys = {0};
    sort->descending = {false};
    sort->children.push_back(std::move(scan));
    PlanPtr plan = FinalizePlan(std::move(sort), db->catalog());
    return db->Execute(*plan).batch.rows;
  }

  /// Replays the per-test log into a fresh database (with the pk index registered) and
  /// checks every MVCC invariant that must hold for ANY durable prefix of
  /// the workload. Returns the sorted recovered rows.
  std::vector<Tuple> ReplayAndCheckInvariants(bool tolerate_torn_tail) {
    Database db;
    db.catalog().CreateTable("t", TestSchema());
    db.catalog().CreateIndex({"pk_t", "t", {0}, true});
    ReplayOptions opts;
    opts.tolerate_torn_tail = tolerate_torn_tail;
    auto stats = ReplayLog(LogPath(), &db.catalog(), &db.txn_manager(), opts);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) return {};

    const std::vector<Tuple> rows = Dump(&db);

    // Unique ids, and every value is one the workload could have written.
    std::set<int64_t> ids;
    for (const Tuple &row : rows) {
      const int64_t id = row[0].AsInt();
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
      EXPECT_EQ(row[1].AsVarchar(), "row" + std::to_string(id));
      const double bal = row[2].AsDouble();
      const bool updatable = id < kUpdatedBelow;
      EXPECT_TRUE(bal == id * 1.5 || (updatable && bal == 999.0))
          << "id " << id << " carries impossible bal " << bal;
      EXPECT_TRUE((id >= 0 && id < kBaseRows) || (id >= kNewLo && id < kNewHi))
          << "phantom id " << id;
    }

    // The scan agrees with the MVCC visibility count.
    {
      Table *t = db.catalog().GetTable("t");
      auto reader = db.txn_manager().Begin(/*read_only=*/true);
      EXPECT_EQ(t->VisibleCount(reader->read_ts()), rows.size());
      db.txn_manager().Commit(reader.get());
    }

    // The index answers point lookups consistently with the scan.
    for (const Tuple &row : rows) {
      auto scan = std::make_unique<IndexScanPlan>();
      scan->index = "pk_t";
      scan->table = "t";
      scan->key_lo = {Value::Integer(row[0].AsInt())};
      PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());
      QueryResult result = db.Execute(*plan);
      EXPECT_EQ(result.batch.rows.size(), 1u);
      if (result.batch.rows.size() == 1) {
        EXPECT_DOUBLE_EQ(result.batch.rows[0][2].AsDouble(), row[2].AsDouble());
      }
    }
    return rows;
  }

  std::set<int64_t> Ids(const std::vector<Tuple> &rows) {
    std::set<int64_t> ids;
    for (const Tuple &row : rows) ids.insert(row[0].AsInt());
    return ids;
  }

  /// Ids after every phase applied: full final state.
  std::set<int64_t> FullStateIds() {
    std::set<int64_t> ids;
    for (int64_t i = 0; i < kBaseRows; i++) {
      if (i < kDeletedLo || i >= kDeletedHi) ids.insert(i);
    }
    for (int64_t i = kNewLo; i < kNewHi; i++) ids.insert(i);
    return ids;
  }
};

// wal.append fires twice, the retry budget (4 attempts) absorbs it: every
// commit stays durable and recovery reproduces the complete final state.
TEST_F(CrashRecoveryTest, AppendTransientFaultRecoversFully) {
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    Table *t = LoadBase(&db);

    FaultSpec spec;
    spec.max_fires = 2;
    FaultInjector::Instance().Arm(fault_point::kWalAppend, spec);
    RunMutations(&db, t);
    EXPECT_EQ(db.log_manager().append_errors(), 0u);
    FaultInjector::Instance().Reset();
    ASSERT_TRUE(db.log_manager().FlushNow().ok());
  }
  const auto rows = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/false);
  EXPECT_EQ(Ids(rows), FullStateIds());
}

// wal.append fires past the whole retry budget for exactly one Serialize
// call: that transaction's redo records never reach the log (in-memory
// commit stands; append_errors reports the durability gap), every other
// transaction survives recovery intact.
TEST_F(CrashRecoveryTest, AppendPermanentFaultLosesOnlyThatTxn) {
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    Table *t = LoadBase(&db);

    // Default policy = 4 attempts; 4 fires exhaust exactly the first call.
    FaultSpec spec;
    spec.max_fires = db.log_manager().retry_policy().max_attempts;
    FaultInjector::Instance().Arm(fault_point::kWalAppend, spec);
    RunMutations(&db, t);  // the insert txn commits first and loses its log
    FaultInjector::Instance().Reset();
    EXPECT_EQ(db.log_manager().append_errors(), 1u);
    ASSERT_TRUE(db.log_manager().FlushNow().ok());
  }
  const auto rows = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/false);
  // The lost txn is the kNewLo..kNewHi insert batch; updates/deletes of the
  // base rows were logged and replay fine.
  auto expected = FullStateIds();
  for (int64_t i = kNewLo; i < kNewHi; i++) expected.erase(i);
  EXPECT_EQ(Ids(rows), expected);
}

// wal.flush fires twice inside FlushNow's retry loop: the flush succeeds on
// the third attempt without surfacing anything to the caller.
TEST_F(CrashRecoveryTest, FlushTransientFaultRetriesInside) {
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    Table *t = LoadBase(&db);
    RunMutations(&db, t);

    FaultSpec spec;
    spec.max_fires = 2;
    FaultInjector::Instance().Arm(fault_point::kWalFlush, spec);
    EXPECT_TRUE(db.log_manager().FlushNow().ok());
    EXPECT_EQ(db.log_manager().flush_errors(), 0u);
    FaultInjector::Instance().Reset();
  }
  const auto rows = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/false);
  EXPECT_EQ(Ids(rows), FullStateIds());
}

// wal.flush fails past the retry budget: the batch is re-queued, the error
// surfaces, and once the device "heals" a later flush writes every committed
// byte — nothing is lost.
TEST_F(CrashRecoveryTest, FlushPermanentFaultRequeuesWithoutLoss) {
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    RetryPolicy fast;
    fast.max_attempts = 2;
    fast.base_backoff_us = 1;
    fast.max_backoff_us = 2;
    db.log_manager().set_retry_policy(fast);
    Table *t = LoadBase(&db);
    RunMutations(&db, t);

    FaultInjector::Instance().Arm(fault_point::kWalFlush, FaultSpec{});
    EXPECT_FALSE(db.log_manager().FlushNow().ok());
    EXPECT_GE(db.log_manager().flush_errors(), 1u);

    FaultInjector::Instance().Reset();  // device heals
    ASSERT_TRUE(db.log_manager().FlushNow().ok());
  }
  const auto rows = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/false);
  EXPECT_EQ(Ids(rows), FullStateIds());
}

// A crash with buffers never flushed: recovery sees exactly the durable base.
TEST_F(CrashRecoveryTest, CrashDropsUnflushedBuffers) {
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    Table *t = LoadBase(&db);
    RunMutations(&db, t);  // committed in memory, never flushed
    db.log_manager().Crash();
  }
  const auto rows = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/false);
  std::set<int64_t> base;
  for (int64_t i = 0; i < kBaseRows; i++) base.insert(i);
  EXPECT_EQ(Ids(rows), base);
}

// The crash-point matrix proper: wal.flush tears the batch at several
// fractions, the process "dies", and torn-tail-tolerant replay applies the
// durable prefix. Whatever subset of the mutations survived, the invariants
// (unique ids, plausible values, scan/index/VisibleCount agreement) hold,
// and recovery is deterministic: replaying the same bytes twice gives the
// same state.
TEST_F(CrashRecoveryTest, TornFlushCrashMatrix) {
  for (const double fraction : {0.0, 0.35, 0.7, 0.95}) {
    SCOPED_TRACE("torn_fraction=" + std::to_string(fraction));
    FaultInjector::Instance().Reset();
    {
      Database::Options options;
      options.wal_path = LogPath();
      Database db(options);
      Table *t = LoadBase(&db);
      RunMutations(&db, t);

      FaultSpec spec;
      spec.action = FaultAction::kTornWrite;
      spec.torn_fraction = fraction;
      FaultInjector::Instance().Arm(fault_point::kWalFlush, spec);
      EXPECT_FALSE(db.log_manager().FlushNow().ok());
      EXPECT_GE(db.log_manager().flush_errors(), 1u);
      FaultInjector::Instance().Reset();
      db.log_manager().Crash();
    }

    const auto first = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/true);
    // The base was flushed before the fault: it must be fully durable
    // (minus deletes that made it into the torn prefix).
    const auto ids = Ids(first);
    for (int64_t i = 0; i < kDeletedLo; i++) {
      EXPECT_TRUE(ids.count(i)) << "durable base row " << i << " lost";
    }
    // Determinism: a second replay of the same bytes is identical.
    const auto second = ReplayAndCheckInvariants(/*tolerate_torn_tail=*/true);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); i++) {
      EXPECT_EQ(first[i][0].AsInt(), second[i][0].AsInt());
      EXPECT_EQ(first[i][1].AsVarchar(), second[i][1].AsVarchar());
      EXPECT_DOUBLE_EQ(first[i][2].AsDouble(), second[i][2].AsDouble());
    }
  }
}

// Without torn-tail tolerance a torn log still fails loudly (the pre-existing
// strict behavior is the default).
TEST_F(CrashRecoveryTest, TornTailRejectedWithoutOptIn) {
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    Table *t = LoadBase(&db);
    RunMutations(&db, t);
    FaultSpec spec;
    spec.action = FaultAction::kTornWrite;
    spec.torn_fraction = 0.35;
    FaultInjector::Instance().Arm(fault_point::kWalFlush, spec);
    EXPECT_FALSE(db.log_manager().FlushNow().ok());
    FaultInjector::Instance().Reset();
    db.log_manager().Crash();
  }
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  auto stats = ReplayLog(LogPath(), &db.catalog(), &db.txn_manager());
  EXPECT_FALSE(stats.ok());
}

// WAL file order must be commit order. The first UPDATE of a row stalls in
// wal.append; a second UPDATE of the row, made once the first is visible,
// commits after it, so replay must end on the second value. When the redo
// bytes were appended after the commit's critical section, the stalled
// commit's bytes landed last and replay reverted the acknowledged update.
TEST_F(CrashRecoveryTest, ReplayKeepsCommitOrderWhenAnEarlierAppendStalls) {
  const char *schema = "CREATE TABLE kv (id INTEGER, a INTEGER)";
  auto read_a = [](Database *db) -> int64_t {
    auto r = db->Execute("SELECT a FROM kv WHERE id = 1");
    if (!r.ok() || r.value().batch.rows.size() != 1) return -1;
    return r.value().batch.rows[0][0].AsInt();
  };
  {
    Database::Options options;
    options.wal_path = LogPath();
    Database db(options);
    ASSERT_TRUE(db.Execute(schema).ok());
    ASSERT_TRUE(db.Execute("INSERT INTO kv VALUES (1, 0), (2, 0)").ok());
    ASSERT_TRUE(db.log_manager().FlushNow().ok());

    ASSERT_TRUE(
        FaultInjector::Instance().ArmFromSpec("wal.append=delay20000,x1").ok());
    std::thread first([&db] {
      auto r = db.Execute("UPDATE kv SET a = 1 WHERE id = 1");
      EXPECT_TRUE(r.ok() && r.value().status.ok());
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (read_a(&db) != 1 && std::chrono::steady_clock::now() < deadline) {
    }
    EXPECT_EQ(read_a(&db), 1);
    auto second = db.Execute("UPDATE kv SET a = 2 WHERE id = 1");
    EXPECT_TRUE(second.ok() && second.value().status.ok());
    first.join();
    FaultInjector::Instance().Reset();
    EXPECT_EQ(db.log_manager().append_errors(), 0u);
    EXPECT_EQ(read_a(&db), 2);
    ASSERT_TRUE(db.log_manager().FlushNow().ok());
    db.log_manager().Crash();
  }
  Database db;
  ASSERT_TRUE(db.Execute(schema).ok());
  auto stats = ReplayLog(LogPath(), &db.catalog(), &db.txn_manager());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(read_a(&db), 2);
}

}  // namespace
}  // namespace mb2
