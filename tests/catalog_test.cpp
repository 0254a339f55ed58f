// Catalog, settings, and Database-facade tests.

#include <gtest/gtest.h>

#include "database.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

TEST(CatalogTest, CreateAndResolveTables) {
  Catalog catalog;
  Table *t = catalog.CreateTable("a", Schema({{"x", TypeId::kInteger, 0}}));
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(catalog.GetTable("a"), t);
  EXPECT_EQ(catalog.GetTable("missing"), nullptr);
  // Duplicate names rejected.
  EXPECT_EQ(catalog.CreateTable("a", Schema({{"y", TypeId::kDouble, 0}})), nullptr);
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"a"});
}

TEST(CatalogTest, TableIdsAreUnique) {
  Catalog catalog;
  Table *a = catalog.CreateTable("a", Schema({{"x", TypeId::kInteger, 0}}));
  Table *b = catalog.CreateTable("b", Schema({{"x", TypeId::kInteger, 0}}));
  EXPECT_NE(a->table_id(), b->table_id());
}

TEST(CatalogTest, IndexLifecycle) {
  Catalog catalog;
  catalog.CreateTable("t", Schema({{"x", TypeId::kInteger, 0},
                                   {"y", TypeId::kInteger, 0}}));
  auto index = catalog.CreateIndex({"i", "t", {1}, false});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index.value()->ready());  // default: immediately usable
  EXPECT_EQ(catalog.GetIndex("i"), index.value());
  EXPECT_EQ(catalog.GetTableIndexes("t").size(), 1u);

  // Duplicate and missing-table errors.
  EXPECT_EQ(catalog.CreateIndex({"i", "t", {0}, false}).status().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(catalog.CreateIndex({"j", "missing", {0}, false}).status().code(),
            ErrorCode::kNotFound);

  ASSERT_TRUE(catalog.DropIndex("i").ok());
  EXPECT_EQ(catalog.GetIndex("i"), nullptr);
  EXPECT_EQ(catalog.DropIndex("i").code(), ErrorCode::kNotFound);
}

TEST(CatalogTest, DeferredIndexNotReadyUntilPublished) {
  Catalog catalog;
  catalog.CreateTable("t", Schema({{"x", TypeId::kInteger, 0}}));
  auto index = catalog.CreateIndex({"i", "t", {0}, false}, /*ready=*/false);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index.value()->ready());
  index.value()->set_ready(true);
  EXPECT_TRUE(index.value()->ready());
}

TEST(SchemaTest, ColumnLookupAndSizes) {
  Schema schema({{"id", TypeId::kInteger, 0},
                 {"name", TypeId::kVarchar, 20},
                 {"bal", TypeId::kDouble, 0}});
  EXPECT_EQ(schema.ColumnIndex("name"), 1);
  EXPECT_EQ(schema.ColumnIndex("nope"), -1);
  EXPECT_EQ(schema.TupleByteSize(), 8u + 20u + 8u);
  Schema projected = schema.Project({2, 0});
  EXPECT_EQ(projected.NumColumns(), 2u);
  EXPECT_EQ(projected.GetColumn(0).name, "bal");
}

TEST(SettingsTest, DefaultsAndUpdates) {
  SettingsManager settings;
  EXPECT_EQ(settings.GetExecutionMode(), ExecutionMode::kInterpret);
  ASSERT_TRUE(settings.SetInt("execution_mode", 1).ok());
  EXPECT_EQ(settings.GetExecutionMode(), ExecutionMode::kCompiled);
  EXPECT_EQ(settings.SetInt("bogus_knob", 1).code(), ErrorCode::kNotFound);
  EXPECT_GT(settings.GetInt("log_flush_interval_us"), 0);
}

TEST(SettingsTest, KnobKindsMatchPaperCategories) {
  SettingsManager settings;
  EXPECT_EQ(settings.Kind("execution_mode"), KnobKind::kBehavior);
  EXPECT_EQ(settings.Kind("log_flush_interval_us"), KnobKind::kBehavior);
  EXPECT_EQ(settings.Kind("buffer_pool_pages"), KnobKind::kResource);
}

TEST(SettingsTest, SnapshotContainsEveryKnob) {
  SettingsManager settings;
  auto snapshot = settings.Snapshot();
  EXPECT_GE(snapshot.size(), 6u);
  EXPECT_TRUE(snapshot.count("execution_mode"));
  EXPECT_TRUE(snapshot.count("jht_sleep_every_n"));
}

TEST(DatabaseTest, WalDisabledByDefault) {
  Database db;
  EXPECT_FALSE(db.log_manager().enabled());
  // Writes still work (no-op logging).
  Table *t = db.catalog().CreateTable("t", Schema({{"x", TypeId::kInteger, 0}}));
  auto txn = db.txn_manager().Begin();
  t->Insert(txn.get(), {Value::Integer(1)});
  db.txn_manager().Commit(txn.get());
  EXPECT_EQ(db.log_manager().total_bytes_flushed(), 0u);
}

TEST(DatabaseTest, WalEnabledPersistsCommits) {
  TempDir tmp;
  Database::Options options;
  options.wal_path = tmp.File("db.log");
  Database db(options);
  ASSERT_TRUE(db.log_manager().enabled());
  Table *t = db.catalog().CreateTable("t", Schema({{"x", TypeId::kInteger, 0}}));
  auto txn = db.txn_manager().Begin();
  for (int i = 0; i < 100; i++) t->Insert(txn.get(), {Value::Integer(i)});
  db.txn_manager().Commit(txn.get());
  db.log_manager().FlushNow();
  EXPECT_GT(db.log_manager().total_bytes_flushed(), 100u * 20u);
}

TEST(DatabaseTest, BackgroundServicesStartAndStopCleanly) {
  TempDir tmp;
  Database::Options options;
  options.wal_path = tmp.File("db.log");
  options.start_flusher = true;
  options.start_gc = true;
  {
    Database db(options);
    Table *t = db.catalog().CreateTable("t", Schema({{"x", TypeId::kInteger, 0}}));
    auto txn = db.txn_manager().Begin();
    t->Insert(txn.get(), {Value::Integer(1)});
    db.txn_manager().Commit(txn.get());
  }  // destructor joins the threads: must not hang or crash
  SUCCEED();
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "NotFound: thing");
  Result<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(Status::Internal("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInternal);
}

}  // namespace
}  // namespace mb2
