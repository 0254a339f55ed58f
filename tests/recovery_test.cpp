// WAL recovery tests: replay reconstructs inserts/updates/deletes, remaps
// slots, maintains indexes, and rejects corrupt logs.

#include <gtest/gtest.h>

#include "database.h"
#include "wal/log_recovery.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  TempDir tmp_;
  const std::string log_path_ = tmp_.File("recovery.log");

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
};

TEST_F(RecoveryTest, ReplayReconstructsFullHistory) {
  // Phase 1: a database with WAL, exercising insert/update/delete.
  {
    Database::Options options;
    options.wal_path = log_path_;
    Database db(options);
    db.catalog().CreateTable("t", TestSchema());
    Table *t = db.catalog().GetTable("t");

    auto txn = db.txn_manager().Begin();
    for (int64_t i = 0; i < 50; i++) {
      t->Insert(txn.get(), {Value::Integer(i), Value::Varchar("row" + std::to_string(i)),
                            Value::Double(i * 1.5)});
    }
    db.txn_manager().Commit(txn.get());

    auto txn2 = db.txn_manager().Begin();
    Tuple row;
    for (SlotId s = 0; s < 10; s++) {
      ASSERT_TRUE(t->Select(txn2.get(), s, &row));
      row[2] = Value::Double(999.0);
      ASSERT_TRUE(t->Update(txn2.get(), s, row).ok());
    }
    for (SlotId s = 40; s < 50; s++) {
      ASSERT_TRUE(t->Delete(txn2.get(), s).ok());
    }
    db.txn_manager().Commit(txn2.get());
    db.log_manager().FlushNow();
  }

  // Phase 2: fresh database, same schema; replay the log.
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  auto stats = ReplayLog(log_path_, &db.catalog(), &db.txn_manager());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().inserts, 50u);
  EXPECT_EQ(stats.value().updates, 10u);
  EXPECT_EQ(stats.value().deletes, 10u);

  const auto rows = Dump(&db, "t");
  ASSERT_EQ(rows.size(), 40u);
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 999.0);        // updated
  EXPECT_EQ(rows[0][1].AsVarchar(), "row0");             // varchar survived
  EXPECT_DOUBLE_EQ(rows[39][2].AsDouble(), 39 * 1.5);    // untouched
  EXPECT_EQ(rows.back()[0].AsInt(), 39);                 // 40..49 deleted
}

TEST_F(RecoveryTest, ReplayMaintainsIndexes) {
  {
    Database::Options options;
    options.wal_path = log_path_;
    Database db(options);
    db.catalog().CreateTable("t", TestSchema());
    Table *t = db.catalog().GetTable("t");
    auto txn = db.txn_manager().Begin();
    for (int64_t i = 0; i < 20; i++) {
      t->Insert(txn.get(), {Value::Integer(i), Value::Varchar("x"),
                            Value::Double(0)});
    }
    db.txn_manager().Commit(txn.get());
    db.log_manager().FlushNow();
  }
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  db.catalog().CreateIndex({"pk_t", "t", {0}, true});
  ASSERT_TRUE(ReplayLog(log_path_, &db.catalog(), &db.txn_manager()).ok());
  // Point lookup through the index finds the replayed row.
  auto scan = std::make_unique<IndexScanPlan>();
  scan->index = "pk_t";
  scan->table = "t";
  scan->key_lo = {Value::Integer(7)};
  PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());
  QueryResult result = db.Execute(*plan);
  ASSERT_EQ(result.batch.rows.size(), 1u);
  EXPECT_EQ(result.batch.rows[0][0].AsInt(), 7);
}

TEST_F(RecoveryTest, UnknownTableRecordsAreSkipped) {
  {
    Database::Options options;
    options.wal_path = log_path_;
    Database db(options);
    db.catalog().CreateTable("t", TestSchema());
    Table *t = db.catalog().GetTable("t");
    auto txn = db.txn_manager().Begin();
    t->Insert(txn.get(), {Value::Integer(1), Value::Varchar("x"), Value::Double(0)});
    db.txn_manager().Commit(txn.get());
    db.log_manager().FlushNow();
  }
  Database db;  // no tables created: everything skipped, no crash
  auto stats = ReplayLog(log_path_, &db.catalog(), &db.txn_manager());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_applied, 0u);
  EXPECT_EQ(stats.value().skipped, 1u);
}

TEST_F(RecoveryTest, CorruptLogRejected) {
  {
    FILE *f = std::fopen(log_path_.c_str(), "wb");
    const char junk[] = "\x01this is not a log";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  Database db;
  db.catalog().CreateTable("t", TestSchema());
  auto stats = ReplayLog(log_path_, &db.catalog(), &db.txn_manager());
  EXPECT_FALSE(stats.ok());
}

TEST_F(RecoveryTest, MissingLogIsIoError) {
  Database db;
  auto stats = ReplayLog(tmp_.File("no_such.log"), &db.catalog(), &db.txn_manager());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kIoError);
}

}  // namespace
}  // namespace mb2
