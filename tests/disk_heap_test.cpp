// Disk-backed table heap: page codec round trips, checksum rejection of
// corrupt and torn pages (page.write fault point), buffer-pool eviction /
// writeback correctness, cold-vs-warm cache scans, faulted page reads
// surfacing as query errors, and the restart matrix — WAL replay into a
// fresh heap, scanned with a warm and a dropped buffer pool.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/fault_injector.h"
#include "database.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/table_heap.h"
#include "wal/log_recovery.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

class DiskHeapTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  /// Per-test file paths: ctest runs test processes in parallel.
  TempDir tmp_;
  std::string HeapPath() const { return tmp_.File("table.heap"); }
  std::string WalPath() const { return tmp_.File("table.log"); }

  Tuple Row(int64_t id) {
    return {Value::Integer(id), Value::Integer(id * 3),
            Value::Varchar("p" + std::to_string(id))};
  }
};

TEST_F(DiskHeapTest, PageRoundTripThroughDiskManager) {
  DiskManager disk(HeapPath());
  ASSERT_TRUE(disk.status().ok());

  Page out;
  const PageId id = disk.Allocate();
  page::Init(&out, id);
  for (int64_t i = 0; i < 20; i++) {
    ASSERT_TRUE(page::AppendRow(&out, static_cast<SlotId>(i), Row(i)));
  }
  ASSERT_TRUE(disk.Write(id, &out).ok());

  Page in;
  ASSERT_TRUE(disk.Read(id, &in).ok());
  EXPECT_EQ(page::Id(in), id);
  std::vector<HeapRow> rows;
  ASSERT_TRUE(page::DecodeRows(in, id, &rows).ok());
  ASSERT_EQ(rows.size(), 20u);
  for (int64_t i = 0; i < 20; i++) {
    EXPECT_EQ(rows[i].slot, static_cast<SlotId>(i));
    EXPECT_EQ(rows[i].row[0].AsInt(), i);
    EXPECT_EQ(rows[i].row[1].AsInt(), i * 3);
    EXPECT_EQ(rows[i].row[2].AsVarchar(), "p" + std::to_string(i));
  }
}

TEST_F(DiskHeapTest, ChecksumMismatchRejected) {
  DiskManager disk(HeapPath());
  ASSERT_TRUE(disk.status().ok());
  Page p;
  const PageId id = disk.Allocate();
  page::Init(&p, id);
  ASSERT_TRUE(page::AppendRow(&p, 0, Row(7)));
  ASSERT_TRUE(disk.Write(id, &p).ok());

  // Flip one payload byte on the device behind the manager's back.
  {
    FILE *f = std::fopen(HeapPath().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(id * kPageSize + 100), SEEK_SET), 0);
    const uint8_t evil = 0xFF;
    ASSERT_EQ(std::fwrite(&evil, 1, 1, f), 1u);
    std::fclose(f);
  }

  Page in;
  const Status s = disk.Read(id, &in);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos) << s.ToString();
}

// The page.write fault point tears the page mid-write (a partial sector
// flush). The write reports the error, and the torn on-disk bytes fail the
// checksum on the next read instead of silently decoding garbage.
TEST_F(DiskHeapTest, TornPageWriteDetectedOnRead) {
  DiskManager disk(HeapPath());
  ASSERT_TRUE(disk.status().ok());
  const PageId id = disk.Allocate();

  // Fill the page to the brim with rows derived from `base`, so every
  // round's image differs from the previous one across the whole payload —
  // a torn write then leaves a prefix of new bytes over a suffix of old
  // ones, which can never checksum. (Tearing an image identical to what is
  // already on disk would leave a perfectly valid page.)
  Page p;
  auto make_full_page = [&](int64_t base) {
    page::Init(&p, id);
    for (int64_t i = base;; i++) {
      if (!page::AppendRow(&p, static_cast<SlotId>(i - base), Row(i))) break;
    }
  };

  // Seed the device with a full valid page.
  make_full_page(0);
  ASSERT_TRUE(disk.Write(id, &p).ok());

  int64_t base = 100000;
  for (const double fraction : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE("torn_fraction=" + std::to_string(fraction));
    make_full_page(base);
    base += 100000;
    FaultSpec spec;
    spec.action = FaultAction::kTornWrite;
    spec.torn_fraction = fraction;
    spec.max_fires = 1;
    FaultInjector::Instance().Arm(fault_point::kPageWrite, spec);
    EXPECT_FALSE(disk.Write(id, &p).ok());
    FaultInjector::Instance().Reset();

    Page in;
    const Status s = disk.Read(id, &in);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("checksum"), std::string::npos) << s.ToString();

    // The device heals: a clean write makes the page readable again.
    ASSERT_TRUE(disk.Write(id, &p).ok());
    ASSERT_TRUE(disk.Read(id, &in).ok());
  }
}

TEST_F(DiskHeapTest, BufferPoolEvictsAndWritesBack) {
  SettingsManager settings;
  settings.SetInt("buffer_pool_pages", 4);
  DiskManager disk(HeapPath());
  ASSERT_TRUE(disk.status().ok());
  BufferPool pool(&disk, &settings);

  // Fill 12 pages through a 4-frame pool: 8 dirty evictions must write back.
  std::vector<PageId> ids;
  for (int64_t i = 0; i < 12; i++) {
    PageId id;
    Page *p;
    ASSERT_TRUE(pool.NewPage(&id, &p).ok());
    ASSERT_TRUE(page::AppendRow(p, static_cast<SlotId>(i), Row(i)));
    pool.Unpin(id, /*dirty=*/true);
    ids.push_back(id);
  }
  const BufferPool::Stats stats = pool.stats();
  EXPECT_GE(stats.evictions, 8u);
  EXPECT_GE(stats.writebacks, 8u);
  EXPECT_LE(pool.ResidentPages(), 4u);

  // Every page — evicted or resident — reads back intact.
  for (int64_t i = 0; i < 12; i++) {
    Page *p;
    ASSERT_TRUE(pool.Pin(ids[i], &p).ok());
    Tuple row;
    ASSERT_TRUE(page::DecodeRowAt(*p, 0, &row).ok());
    EXPECT_EQ(row[0].AsInt(), i);
    pool.Unpin(ids[i], false);
  }
}

TEST_F(DiskHeapTest, DiskTableScanColdVsWarm) {
  Database db;
  db.settings().SetInt("buffer_pool_pages", 8);
  ASSERT_TRUE(db.Execute("CREATE TABLE dt (id INTEGER, v INTEGER, p VARCHAR(8)) "
                         "WITH (storage = disk)")
                  .ok());
  Table *t = db.catalog().GetTable("dt");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->storage(), TableStorage::kDisk);

  auto txn = db.txn_manager().Begin();
  constexpr int64_t kRows = 4000;  // ~dozens of pages, well over 8 frames
  for (int64_t i = 0; i < kRows; i++) t->Insert(txn.get(), Row(i));
  ASSERT_TRUE(db.txn_manager().Commit(txn.get()).ok());
  ASSERT_GT(t->heap()->NumPages(), 8u * 4u) << "dataset must exceed 4x pool";

  BufferPool *pool = t->heap()->pool();
  auto scan_ids = [&] {
    auto result = db.Execute("SELECT id FROM dt");
    EXPECT_TRUE(result.ok());
    std::set<int64_t> ids;
    for (const Tuple &row : result.value().batch.rows) ids.insert(row[0].AsInt());
    return ids;
  };

  // Cold: dropped pool, every page misses.
  ASSERT_TRUE(pool->DropAll().ok());
  const uint64_t misses_before_cold = pool->stats().misses;
  const std::set<int64_t> cold = scan_ids();
  const uint64_t cold_misses = pool->stats().misses - misses_before_cold;
  EXPECT_GE(cold_misses, t->heap()->NumPages());

  // Warm: a strict-LRU pool smaller than the table re-misses every page on
  // a repeated sequential scan, so grow the pool past the table (the knob
  // is hot-tunable), fill it with one scan, and the rescan hits every page.
  db.settings().SetInt("buffer_pool_pages", 64);
  scan_ids();  // fill the enlarged pool
  const uint64_t hits_before_warm = pool->stats().hits;
  const uint64_t misses_before_warm = pool->stats().misses;
  const std::set<int64_t> warm = scan_ids();
  EXPECT_GE(pool->stats().hits - hits_before_warm, t->heap()->NumPages());
  EXPECT_EQ(pool->stats().misses, misses_before_warm);

  EXPECT_EQ(cold.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(cold, warm);
}

TEST_F(DiskHeapTest, FaultedPageReadSurfacesError) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE dt (id INTEGER, v INTEGER, p VARCHAR(8)) "
                         "WITH (storage = disk)")
                  .ok());
  Table *t = db.catalog().GetTable("dt");
  auto txn = db.txn_manager().Begin();
  for (int64_t i = 0; i < 500; i++) t->Insert(txn.get(), Row(i));
  ASSERT_TRUE(db.txn_manager().Commit(txn.get()).ok());

  // Evict everything so the scan must hit the (now faulty) device.
  ASSERT_TRUE(t->heap()->pool()->DropAll().ok());
  FaultInjector::Instance().Arm(fault_point::kPageRead, FaultSpec{});
  auto result = db.Execute("SELECT id FROM dt");
  ASSERT_TRUE(result.ok());  // parse/bind fine; execution carries the error
  EXPECT_FALSE(result.value().status.ok());
  FaultInjector::Instance().Reset();

  // Healed device: the same query succeeds.
  auto retry = db.Execute("SELECT id FROM dt");
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().status.ok());
  EXPECT_EQ(retry.value().batch.rows.size(), 500u);
}

// Restart matrix: the WAL is the durability story for disk tables (the heap
// file is truncated on open). After a "crash", replay rebuilds the heap; the
// recovered data must be identical whether scanned through the warm buffer
// pool left by replay or after dropping it (every page re-read from disk).
TEST_F(DiskHeapTest, RestartReplaysIntoHeapWarmAndColdPoolsAgree) {
  constexpr int64_t kRows = 800;
  {
    Database::Options options;
    options.wal_path = WalPath();
    options.heap_path = HeapPath();
    Database db(options);
    ASSERT_TRUE(db.Execute("CREATE TABLE dt (id INTEGER, v INTEGER, p VARCHAR(8)) "
                           "WITH (storage = disk)")
                    .ok());
    Table *t = db.catalog().GetTable("dt");
    auto txn = db.txn_manager().Begin();
    for (int64_t i = 0; i < kRows; i++) t->Insert(txn.get(), Row(i));
    ASSERT_TRUE(db.txn_manager().Commit(txn.get()).ok());
    // Delete a few so replay exercises tombstones too.
    auto dtxn = db.txn_manager().Begin();
    for (SlotId s = 0; s < 10; s++) ASSERT_TRUE(t->Delete(dtxn.get(), s).ok());
    ASSERT_TRUE(db.txn_manager().Commit(dtxn.get()).ok());
    ASSERT_TRUE(db.log_manager().FlushNow().ok());
  }  // crash: heap pool state is gone with the process

  Database::Options options;
  options.wal_path = "";  // replay by hand below
  options.heap_path = HeapPath();
  Database db(options);
  db.catalog().CreateTable("dt",
                           Schema({{"id", TypeId::kInteger, 0},
                                   {"v", TypeId::kInteger, 0},
                                   {"p", TypeId::kVarchar, 8}}),
                           TableStorage::kDisk);
  auto stats = ReplayLog(WalPath(), &db.catalog(), &db.txn_manager());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  Table *t = db.catalog().GetTable("dt");
  ASSERT_EQ(t->storage(), TableStorage::kDisk);
  auto scan_ids = [&] {
    auto result = db.Execute("SELECT id, v FROM dt");
    EXPECT_TRUE(result.ok() && result.value().status.ok());
    std::set<int64_t> ids;
    for (const Tuple &row : result.value().batch.rows) {
      EXPECT_EQ(row[1].AsInt(), row[0].AsInt() * 3);
      ids.insert(row[0].AsInt());
    }
    return ids;
  };

  // Warm: replay just wrote these pages through the pool.
  const std::set<int64_t> warm = scan_ids();
  EXPECT_EQ(warm.size(), static_cast<size_t>(kRows - 10));
  EXPECT_EQ(warm.count(5), 0u);   // deleted
  EXPECT_EQ(warm.count(10), 1u);  // survived

  // Dropped pool: every page comes back from the heap file, identically.
  ASSERT_TRUE(t->heap()->pool()->DropAll().ok());
  const std::set<int64_t> cold = scan_ids();
  EXPECT_EQ(cold, warm);
}

TEST_F(DiskHeapTest, CreateTableStorageOptionValidation) {
  Database db;
  // Explicit memory storage parses and behaves like the default.
  ASSERT_TRUE(db.Execute("CREATE TABLE m (a INTEGER) WITH (storage = memory)").ok());
  EXPECT_EQ(db.catalog().GetTable("m")->storage(), TableStorage::kMemory);
  // Unknown option and unknown storage kind both fail cleanly.
  EXPECT_FALSE(db.Execute("CREATE TABLE x (a INTEGER) WITH (compression = lz4)").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE x (a INTEGER) WITH (storage = floppy)").ok());
}

}  // namespace
}  // namespace mb2
