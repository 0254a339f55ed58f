// Unit tests for the common module: values, robust statistics, RNG, CSV,
// thread pool, and latches.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/csv.h"
#include "common/latch.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/value.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

// --- Value -----------------------------------------------------------------

TEST(ValueTest, IntegerCompare) {
  EXPECT_LT(Value::Integer(1).Compare(Value::Integer(2)), 0);
  EXPECT_EQ(Value::Integer(5).Compare(Value::Integer(5)), 0);
  EXPECT_GT(Value::Integer(9).Compare(Value::Integer(-2)), 0);
}

TEST(ValueTest, MixedNumericCompare) {
  EXPECT_LT(Value::Integer(1).Compare(Value::Double(1.5)), 0);
  EXPECT_EQ(Value::Double(2.0).Compare(Value::Integer(2)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Integer(2)), 0);
}

TEST(ValueTest, VarcharCompare) {
  EXPECT_LT(Value::Varchar("abc").Compare(Value::Varchar("abd")), 0);
  EXPECT_EQ(Value::Varchar("x").Compare(Value::Varchar("x")), 0);
}

TEST(ValueTest, HashConsistency) {
  EXPECT_EQ(Value::Integer(42).Hash(), Value::Integer(42).Hash());
  EXPECT_NE(Value::Integer(42).Hash(), Value::Integer(43).Hash());
  EXPECT_EQ(Value::Varchar("hi").Hash(), Value::Varchar("hi").Hash());
}

TEST(ValueTest, HashDistributionOverDenseKeys) {
  // Dense integers must not collide in the low bits (hash-table quality).
  std::set<uint64_t> buckets;
  for (int64_t i = 0; i < 1024; i++) {
    buckets.insert(Value::Integer(i).Hash() % 4096);
  }
  EXPECT_GT(buckets.size(), 800u);
}

TEST(ValueTest, StorageSize) {
  EXPECT_EQ(Value::Integer(1).StorageSize(), 8u);
  EXPECT_EQ(Value::Varchar("hello").StorageSize(), 5u);
  EXPECT_EQ(TupleSize({Value::Integer(1), Value::Varchar("ab")}), 10u);
}

// --- Stats -------------------------------------------------------------------

TEST(StatsTest, TrimmedMeanDiscardsOutliers) {
  // 20% trim on 10 samples discards the 2 extremes from each tail.
  std::vector<double> xs = {1, 1, 1, 1, 1, 1, 1, 1, -1000, 1000};
  EXPECT_DOUBLE_EQ(TrimmedMean(xs, 0.2), 1.0);
}

TEST(StatsTest, TrimmedMeanOfUniformIsMean) {
  std::vector<double> xs = {2, 4, 6, 8, 10};
  EXPECT_DOUBLE_EQ(TrimmedMean(xs, 0.2), 6.0);
  EXPECT_DOUBLE_EQ(Mean(xs), 6.0);
}

TEST(StatsTest, TrimmedMeanBreakdownPoint) {
  // Up to 40% gross outliers must not drag the estimate arbitrarily.
  std::vector<double> xs(10, 5.0);
  xs[0] = xs[1] = 1e12;
  xs[2] = xs[3] = -1e12;
  EXPECT_DOUBLE_EQ(TrimmedMean(xs, 0.2), 5.0);
}

TEST(StatsTest, Percentiles) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Median(xs), 3.0);
}

TEST(StatsTest, RelativeAndAbsoluteErrors) {
  EXPECT_DOUBLE_EQ(AverageRelativeError({10, 20}, {11, 18}), 0.1);
  EXPECT_DOUBLE_EQ(AverageAbsoluteError({10, 20}, {11, 18}), 1.5);
  // Zero actuals are skipped by relative error, not divided by.
  EXPECT_DOUBLE_EQ(AverageRelativeError({0, 10}, {5, 20}), 1.0);
}

TEST(StatsTest, VarianceAndStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(Variance(xs), 4.571428, 1e-5);
  EXPECT_NEAR(StdDev(xs), 2.13809, 1e-4);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; i++) {
    const int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; i++) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; i++) xs.push_back(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(Mean(xs), 10.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.1);
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Zipf zipf(1000, 0.9, 5);
  std::vector<uint64_t> counts(1000, 0);
  for (int i = 0; i < 20000; i++) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Hot key dominates under a 0.9-theta zipfian.
  EXPECT_GT(counts[0], 1000u);
}

TEST(RngTest, NuRandWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; i++) {
    const int64_t v = rng.NuRand(255, 0, 999);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(2);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  TempDir tmp;
  const std::string path = tmp.File("test.csv");
  {
    auto writer = CsvWriter::Open(path, {"a", "b", "c"});
    ASSERT_TRUE(writer.ok());
    writer.value().WriteRow({1.5, -2.25, 3e9});
    writer.value().WriteRow({0.1234567890123456, 0, 42});
  }
  auto data = ReadCsv(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(data.value().rows.size(), 2u);
  EXPECT_DOUBLE_EQ(data.value().rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(data.value().rows[1][0], 0.1234567890123456);
  EXPECT_DOUBLE_EQ(data.value().rows[1][2], 42.0);
}

TEST(CsvTest, MissingFileIsIoError) {
  TempDir tmp;
  auto data = ReadCsv(tmp.File("missing.csv"));
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), ErrorCode::kIoError);
}

// --- ThreadPool / latches ------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; i++) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitAllBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; i++) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.WaitAll();
  EXPECT_EQ(done.load(), 8);
}

TEST(SpinLatchTest, MutualExclusion) {
  SpinLatch latch;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; i++) {
        SpinLatch::ScopedLock guard(&latch);
        counter++;
      }
    });
  }
  for (auto &t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(SharedLatchTest, WriterExcludesWriter) {
  SharedLatch latch;
  latch.LockExclusive();
  EXPECT_FALSE(latch.TryLockExclusive());
  latch.UnlockExclusive();
  EXPECT_TRUE(latch.TryLockExclusive());
  latch.UnlockExclusive();
}

}  // namespace
}  // namespace mb2
