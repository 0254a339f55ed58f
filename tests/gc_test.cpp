// Garbage-collector tests: reclamation accounting, horizon respect, the GC
// OU record, the background thread, the cost of a pass, and snapshot
// readers racing the GC.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "database.h"
#include "metrics/work_stats.h"
#include "runner/ou_runner.h"

namespace mb2 {
namespace {

class GcTest : public ::testing::Test {
 protected:
  void SetUp() override { table_ = MakeSyntheticTable(&db_, "t", 1000, 1000, 3); }

  /// Updates every row once, creating one dead version per row.
  void Churn() {
    auto txn = db_.txn_manager().Begin();
    Tuple row;
    for (SlotId slot = 0; slot < table_->NumSlots(); slot++) {
      if (!table_->Select(txn.get(), slot, &row)) continue;
      row[1] = Value::Integer(row[1].AsInt() + 1);
      ASSERT_TRUE(table_->Update(txn.get(), slot, row).ok());
    }
    db_.txn_manager().Commit(txn.get());
  }

  Database db_;
  Table *table_ = nullptr;
};

TEST_F(GcTest, ReclaimsDeadVersions) {
  Churn();
  Churn();
  GcResult result = db_.gc().RunOnce();
  EXPECT_EQ(result.versions_unlinked, 2000u);
  EXPECT_GT(result.bytes_reclaimed, 2000u * sizeof(VersionNode));
  // Second pass finds nothing.
  GcResult again = db_.gc().RunOnce();
  EXPECT_EQ(again.versions_unlinked, 0u);
}

TEST_F(GcTest, EmitsBatchOuRecordWithAmendedFeatures) {
  Churn();
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(true);
  GcResult result = db_.gc().RunOnce();
  metrics.SetEnabled(false);
  bool found = false;
  for (const auto &r : metrics.DrainAll()) {
    if (r.ou != OuType::kGarbageCollection) continue;
    found = true;
    EXPECT_DOUBLE_EQ(r.features[0], static_cast<double>(result.versions_unlinked));
    EXPECT_DOUBLE_EQ(r.features[1], static_cast<double>(result.bytes_reclaimed));
    EXPECT_GT(r.labels[kLabelElapsedUs], 0.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(GcTest, ActiveSnapshotBlocksReclamation) {
  Churn();
  auto pin = db_.txn_manager().Begin(true);  // snapshot before next churn
  Churn();
  GcResult result = db_.gc().RunOnce();
  // Versions still visible to `pin` must survive: only the first churn's
  // superseded versions are reclaimable.
  EXPECT_LE(result.versions_unlinked, 1000u);
  Tuple row;
  ASSERT_TRUE(table_->Select(pin.get(), 0, &row));
  db_.txn_manager().Commit(pin.get());
  GcResult rest = db_.gc().RunOnce();
  EXPECT_GE(rest.versions_unlinked, 1000u);
}

TEST_F(GcTest, BackgroundThreadCollects) {
  db_.settings().SetInt("gc_interval_us", 2000);
  Churn();
  db_.gc().StartBackground();
  // Wait until the dead versions disappear.
  bool reclaimed = false;
  for (int i = 0; i < 500; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (db_.gc().RunOnce().versions_unlinked == 0) {
      reclaimed = true;
      break;
    }
  }
  db_.gc().StopBackground();
  EXPECT_TRUE(reclaimed);
}

// A pass visits only the slots commits superseded: ten single-row updates
// on a 100k-row table cost ten slot visits, not a walk of the table.
TEST_F(GcTest, PassVisitsOnlySupersededSlots) {
  Table *big = MakeSyntheticTable(&db_, "big", 100000, 1000, 7);
  for (SlotId slot = 0; slot < 100000; slot += 10000) {
    auto txn = db_.txn_manager().Begin();
    Tuple row;
    ASSERT_TRUE(big->Select(txn.get(), slot, &row));
    row[1] = Value::Integer(row[1].AsInt() + 1);
    ASSERT_TRUE(big->Update(txn.get(), slot, row).ok());
    ASSERT_TRUE(db_.txn_manager().Commit(txn.get()).ok());
  }
  const uint64_t visited = WorkStats::Current().tuples_processed;
  const GcResult result = db_.gc().RunOnce();
  EXPECT_EQ(result.versions_unlinked, 10u);
  EXPECT_EQ(WorkStats::Current().tuples_processed - visited, 10u);
}

// One writer keeps updating a single row while GC passes run beside two
// snapshot readers: every read must find the row. A reader's snapshot must
// be registered before the GC can read a horizon past it, and a commit's
// versions must be stamped before any reader that begins after its commit
// timestamp can look at them; otherwise the GC frees the version the reader
// steps down to.
TEST_F(GcTest, SnapshotReadersNeverLoseACommittedRow) {
  Table *one = MakeSyntheticTable(&db_, "one", 1, 1, 5);
  TransactionManager &txns = db_.txn_manager();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, misses{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Tuple row;
    while (!stop.load(std::memory_order_acquire)) {
      auto txn = txns.Begin();
      if (one->Select(txn.get(), 0, &row)) {
        row[1] = Value::Integer(row[1].AsInt() + 1);
        (void)one->Update(txn.get(), 0, row);
      }
      txns.Commit(txn.get());
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) db_.gc().RunOnce();
  });
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&] {
      Tuple row;
      while (!stop.load(std::memory_order_acquire)) {
        auto txn = txns.Begin(true);
        if (!one->Select(txn.get(), 0, &row)) misses.fetch_add(1);
        reads.fetch_add(1);
        txns.Commit(txn.get());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true, std::memory_order_release);
  for (auto &t : threads) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(misses.load(), 0u) << "of " << reads.load() << " reads";
}

}  // namespace
}  // namespace mb2
