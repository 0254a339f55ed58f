// Runner tests: synthetic-table properties, trimmed-mean aggregation of
// repetition streams, per-OU runner coverage, and the concurrent runner's
// record stream.

#include <gtest/gtest.h>

#include <set>

#include "database.h"
#include "runner/concurrent_runner.h"
#include "runner/ou_runner.h"
#include "workload/tpch.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

TEST(SyntheticTableTest, CardinalityControlled) {
  Database db;
  Table *t = MakeSyntheticTable(&db, "t", 5000, 50, 3);
  ASSERT_EQ(t->NumSlots(), 5000u);
  // Payload column c0 (index 1) has at most 50 distinct values.
  std::set<int64_t> distinct;
  auto txn = db.txn_manager().Begin(true);
  Tuple row;
  for (SlotId s = 0; s < t->NumSlots(); s++) {
    ASSERT_TRUE(t->Select(txn.get(), s, &row));
    distinct.insert(row[1].AsInt());
    EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(s));  // id column unique
  }
  db.txn_manager().Commit(txn.get());
  EXPECT_LE(distinct.size(), 50u);
  EXPECT_GT(distinct.size(), 30u);
}

TEST(OuRunnerTest, ScanRunnerCoversFeatureSpace) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {64, 512};
  OuRunner runner(&db, cfg);
  auto records = runner.RunScanAndFilter();
  ASSERT_GT(records.size(), 0u);
  std::set<double> rows_seen, modes_seen, cols_seen;
  for (const auto &r : records) {
    if (r.ou != OuType::kSeqScan) continue;
    rows_seen.insert(r.features[exec_feature::kNumRows]);
    modes_seen.insert(r.features[exec_feature::kExecMode]);
    cols_seen.insert(r.features[exec_feature::kNumCols]);
  }
  EXPECT_EQ(rows_seen.size(), 2u);   // both table sizes
  EXPECT_EQ(modes_seen.size(), 2u);  // both execution modes
  EXPECT_GE(cols_seen.size(), 2u);   // column sweep
  EXPECT_GT(runner.runner_seconds(), 0.0);
}

TEST(OuRunnerTest, TrimmedMeanAggregationAlignsRepetitions) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {256};
  cfg.cardinality_fractions = {1.0};
  cfg.column_counts = {2};
  cfg.exec_modes = {0};
  cfg.repetitions = 5;
  OuRunner runner(&db, cfg);
  auto records = runner.RunScanAndFilter();
  // 2 selectivities x (txn_begin + seq_scan + arithmetic + output +
  // txn_commit) = 10 aggregated records, NOT 5x that (reps collapse).
  EXPECT_EQ(records.size(), 10u);
}

TEST(OuRunnerTest, DmlRunnerLeavesTableUnchanged) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {512};
  OuRunner runner(&db, cfg);
  auto records = runner.RunDml();
  std::set<OuType> seen;
  for (const auto &r : records) seen.insert(r.ou);
  EXPECT_TRUE(seen.count(OuType::kInsert));
  EXPECT_TRUE(seen.count(OuType::kUpdate));
  EXPECT_TRUE(seen.count(OuType::kDelete));
  // Rollbacks reverted everything: the scratch table's live count matches
  // its original population.
  Table *scratch = db.catalog().GetTable("ou_synth_0");
  ASSERT_NE(scratch, nullptr);
  EXPECT_EQ(scratch->VisibleCount(db.txn_manager().OldestActiveTs()), 512u);
}

TEST(OuRunnerTest, IndexBuildsSweepThreads) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {1024};
  cfg.cardinality_fractions = {1.0};
  cfg.index_build_threads = {1, 4};
  OuRunner runner(&db, cfg);
  auto records = runner.RunIndexBuilds();
  std::set<double> threads_seen;
  for (const auto &r : records) {
    ASSERT_EQ(r.ou, OuType::kIndexBuild);
    threads_seen.insert(r.features[4]);
  }
  EXPECT_EQ(threads_seen, (std::set<double>{1.0, 4.0}));
  // No leftover indexes.
  EXPECT_TRUE(db.catalog().IndexNames().empty());
}

TEST(OuRunnerTest, WalGcTxnRunnersProduceTheirOus) {
  TempDir tmp;
  Database::Options options;
  options.wal_path = tmp.File("runner.log");
  Database db(options);
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {1024};
  cfg.repetitions = 2;
  OuRunner runner(&db, cfg);
  std::set<OuType> seen;
  for (const auto &r : runner.RunWal()) seen.insert(r.ou);
  for (const auto &r : runner.RunGc()) seen.insert(r.ou);
  for (const auto &r : runner.RunTxns()) seen.insert(r.ou);
  EXPECT_TRUE(seen.count(OuType::kLogSerialize));
  EXPECT_TRUE(seen.count(OuType::kLogFlush));
  EXPECT_TRUE(seen.count(OuType::kGarbageCollection));
  EXPECT_TRUE(seen.count(OuType::kTxnBegin));
  EXPECT_TRUE(seen.count(OuType::kTxnCommit));
}

TEST(ConcurrentRunnerTest, ProducesThreadTaggedRecords) {
  Database db;
  TpchWorkload tpch(&db, 0.001);
  tpch.Load();
  ConcurrentRunner runner(&db, tpch.AllTemplates());
  ConcurrentRunnerConfig cfg = ConcurrentRunnerConfig::Small();
  cfg.thread_counts = {2};
  auto records = runner.Run(cfg);
  ASSERT_GT(records.size(), 0u);
  std::set<uint64_t> threads;
  int64_t min_t = INT64_MAX, max_t = 0;
  for (const auto &r : records) {
    threads.insert(r.thread_id);
    min_t = std::min(min_t, r.end_time_us);
    max_t = std::max(max_t, r.end_time_us);
  }
  EXPECT_GE(threads.size(), 2u);
  EXPECT_GT(max_t, min_t);  // timestamps usable for window bucketing
}

}  // namespace
}  // namespace mb2
