// WAL tests: record encoding, buffer sealing, flush batching, background
// flusher, and the LOG_SERIALIZE / LOG_FLUSH OU records.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <thread>

#include "catalog/settings.h"
#include "metrics/metrics_collector.h"
#include "wal/log_applier.h"
#include "wal/log_manager.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

RedoRecord MakeRecord(uint64_t slot, size_t values) {
  RedoRecord r;
  r.op = LogOpType::kUpdate;
  r.table_id = 3;
  r.slot = slot;
  for (size_t i = 0; i < values; i++) {
    r.after.push_back(Value::Integer(static_cast<int64_t>(i)));
  }
  return r;
}

TEST(LogRecordTest, SizeMatchesEncoding) {
  for (size_t values : {0u, 1u, 5u, 20u}) {
    RedoRecord r = MakeRecord(1, values);
    std::vector<uint8_t> buf;
    const size_t encoded = SerializeRedoRecord(r, 42, &buf);
    EXPECT_EQ(encoded, RedoRecordSize(r));
    EXPECT_EQ(buf.size(), RedoRecordSize(r));
  }
}

TEST(LogRecordTest, VarcharEncoding) {
  RedoRecord r;
  r.op = LogOpType::kInsert;
  r.after.push_back(Value::Varchar("hello world"));
  std::vector<uint8_t> buf;
  SerializeRedoRecord(r, 1, &buf);
  EXPECT_EQ(buf.size(), RedoRecordSize(r));
  // The payload text appears verbatim in the encoding.
  const std::string encoded(buf.begin(), buf.end());
  EXPECT_NE(encoded.find("hello world"), std::string::npos);
}

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest() : path_(tmp_.File("wal.log")) {}

  uint64_t FileSize() const {
    struct stat st;
    return ::stat(path_.c_str(), &st) == 0 ? st.st_size : 0;
  }

  TempDir tmp_;
  std::string path_;
  SettingsManager settings_;
};

TEST_F(LogManagerTest, SerializeThenFlushWritesAllBytes) {
  LogManager log(path_, &settings_);
  std::vector<RedoRecord> records;
  size_t expected = 0;
  for (uint64_t i = 0; i < 100; i++) {
    records.push_back(MakeRecord(i, 4));
    expected += RedoRecordSize(records.back());
  }
  log.Serialize(records, /*txn_id=*/7);
  log.FlushNow();
  EXPECT_EQ(log.total_bytes_flushed(), expected);
  EXPECT_EQ(FileSize(), expected);
}

TEST_F(LogManagerTest, LargeBatchSealsMultipleBuffers) {
  LogManager log(path_, &settings_);
  // ~8k records x 40+ bytes each spans several 64 KB buffers.
  std::vector<RedoRecord> records;
  for (uint64_t i = 0; i < 8192; i++) records.push_back(MakeRecord(i, 2));

  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(true);
  log.Serialize(records, 1);
  log.FlushNow();
  metrics.SetEnabled(false);

  bool saw_serialize = false, saw_flush = false;
  for (const auto &r : metrics.DrainAll()) {
    if (r.ou == OuType::kLogSerialize) {
      saw_serialize = true;
      EXPECT_DOUBLE_EQ(r.features[0], 8192.0);  // record count
      EXPECT_GT(r.features[1], 64.0 * 1024);    // bytes
      EXPECT_GE(r.features[2], 1.0);            // buffers sealed
    }
    if (r.ou == OuType::kLogFlush) {
      saw_flush = true;
      EXPECT_GE(r.features[1], 2.0);  // buffers flushed
      EXPECT_GT(r.labels[kLabelBlockWrites], 0.0);
    }
  }
  EXPECT_TRUE(saw_serialize);
  EXPECT_TRUE(saw_flush);
}

TEST_F(LogManagerTest, BackgroundFlusherDrains) {
  settings_.SetInt("log_flush_interval_us", 2000);
  LogManager log(path_, &settings_);
  log.StartFlusher();
  std::vector<RedoRecord> records = {MakeRecord(1, 3)};
  log.Serialize(records, 1);
  for (int i = 0; i < 200 && log.total_bytes_flushed() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  log.StopFlusher();
  EXPECT_GT(log.total_bytes_flushed(), 0u);
}

TEST_F(LogManagerTest, DisabledWalIsNoOp) {
  LogManager log("", &settings_);
  EXPECT_FALSE(log.enabled());
  std::vector<RedoRecord> records = {MakeRecord(1, 3)};
  log.Serialize(records, 1);  // must not crash
  log.FlushNow();
  EXPECT_EQ(log.total_bytes_flushed(), 0u);
}

TEST_F(LogManagerTest, ConcurrentSerializersDoNotCorrupt) {
  LogManager log(path_, &settings_);
  constexpr int kThreads = 4, kBatches = 50;
  size_t per_batch = 0;
  {
    std::vector<RedoRecord> probe = {MakeRecord(0, 2), MakeRecord(1, 2)};
    for (const auto &r : probe) per_batch += RedoRecordSize(r);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatches; b++) {
        std::vector<RedoRecord> records = {MakeRecord(t, 2), MakeRecord(b, 2)};
        log.Serialize(records, t);
      }
    });
  }
  for (auto &th : threads) th.join();
  log.FlushNow();
  EXPECT_EQ(log.total_bytes_flushed(), per_batch * kThreads * kBatches);
}

TEST_F(LogManagerTest, ConcurrentSyncCommitsKeepFileInSealOrder) {
  // Sync-commit makes every Serialize call a flusher, racing the background
  // thread and each other. If sealed buffers could reach the device out of
  // seal order, the file would interleave halves of records and stop being a
  // parseable stream — which is exactly what a recovery replay or a
  // replication follower would then choke on.
  settings_.SetInt("wal_sync_commit", 1);
  settings_.SetInt("log_flush_interval_us", 100);
  constexpr int kThreads = 4, kBatches = 60;
  size_t expected_bytes = 0, expected_records = 0;
  {
    LogManager log(path_, &settings_);
    log.StartFlusher();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int b = 0; b < kBatches; b++) {
          std::vector<RedoRecord> records = {MakeRecord(t, 3),
                                             MakeRecord(b, 1)};
          ASSERT_TRUE(log.Serialize(records, t * 1000 + b).ok());
        }
      });
    }
    for (auto &th : threads) th.join();
    log.StopFlusher();
    ASSERT_TRUE(log.FlushNow().ok());
    expected_bytes = log.total_bytes_flushed();
    expected_records = kThreads * kBatches * 2;
  }
  std::vector<RedoRecord> probe = {MakeRecord(0, 3), MakeRecord(0, 1)};
  EXPECT_EQ(expected_bytes, (RedoRecordSize(probe[0]) + RedoRecordSize(probe[1])) *
                                kThreads * kBatches);
  EXPECT_EQ(FileSize(), expected_bytes);

  // The file must parse as a clean stream of whole records: the applier
  // rejects corrupt bytes and buffers a partial tail, so reordered flushes
  // cannot sneak past this.
  FILE *f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> bytes(expected_bytes);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  Catalog catalog;
  TransactionManager txn_manager;
  LogApplier applier(&catalog, &txn_manager);
  ASSERT_TRUE(applier.Apply(0, bytes.data(), bytes.size()).ok());
  EXPECT_FALSE(applier.has_partial_record());
  // Table id 3 never exists here, so every record parses and is skipped.
  EXPECT_EQ(applier.total().skipped, expected_records);
}

}  // namespace
}  // namespace mb2
