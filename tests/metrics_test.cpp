// Metrics-layer tests: resource tracker labels, simulated hardware
// frequency, hardware-context features, the decentralized collector, and
// work-stat plumbing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "metrics/metrics_collector.h"
#include "metrics/resource_tracker.h"
#include "metrics/work_stats.h"

namespace mb2 {
namespace {

void BurnCpu(int64_t iterations) {
  volatile uint64_t sink = 0;
  for (int64_t i = 0; i < iterations; i++) {
    sink = sink + static_cast<uint64_t>(i * i);
  }
}

TEST(ResourceTrackerTest, LabelsAreNonNegativeAndOrdered) {
  ResourceTracker tracker;
  tracker.Start();
  BurnCpu(2000000);
  const Labels labels = tracker.Stop();
  EXPECT_GT(labels[kLabelElapsedUs], 0.0);
  EXPECT_GT(labels[kLabelCpuTimeUs], 0.0);
  EXPECT_GT(labels[kLabelCycles], 0.0);
  EXPECT_GE(labels[kLabelBlockReads], 0.0);
  // CPU-bound section: cpu time within ~3x of elapsed (scheduler noise).
  EXPECT_LT(labels[kLabelCpuTimeUs], labels[kLabelElapsedUs] * 3.0);
}

TEST(ResourceTrackerTest, MoreWorkMoreCycles) {
  ResourceTracker tracker;
  tracker.Start();
  BurnCpu(300000);
  const Labels small = tracker.Stop();
  tracker.Start();
  BurnCpu(6000000);
  const Labels big = tracker.Stop();
  EXPECT_GT(big[kLabelCycles], small[kLabelCycles] * 2.0);
  EXPECT_GT(big[kLabelElapsedUs], small[kLabelElapsedUs]);
}

TEST(ResourceTrackerTest, WorkStatsDriveSyntheticCounters) {
  // Instructions/cache labels must be a function of the instrumented work
  // regardless of the counter backend (real perf counts the same loop).
  ResourceTracker tracker;
  tracker.Start();
  WorkStats::Current().tuples_processed += 100000;
  WorkStats::Current().bytes_read += 6400000;
  BurnCpu(1000000);
  const Labels labels = tracker.Stop();
  EXPECT_GT(labels[kLabelInstructions], 0.0);
  EXPECT_GT(labels[kLabelCacheRefs], 0.0);
  EXPECT_GE(labels[kLabelCacheMisses], 0.0);
  EXPECT_LE(labels[kLabelCacheMisses], labels[kLabelCacheRefs]);
}

TEST(ResourceTrackerTest, MemoryBytesOverrideWins) {
  ResourceTracker tracker;
  tracker.Start();
  tracker.SetMemoryBytes(123456.0);
  const Labels labels = tracker.Stop();
  EXPECT_DOUBLE_EQ(labels[kLabelMemoryBytes], 123456.0);
}

/// Burns CPU in one tracked window; returns the window's elapsed_us label and
/// sets *work_us to the loop's own time, read inside the same window.
double TrackedBurnUs(ResourceTracker *tracker, double *work_us) {
  tracker->Start();
  const auto start = std::chrono::steady_clock::now();
  BurnCpu(1000000);
  *work_us = std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  return tracker->Stop()[kLabelElapsedUs];
}

TEST(SimulatedHardwareTest, LowerFrequencySlowsTrackedWork) {
  // Each label is compared with the work inside its own window, not with a
  // second run: on a shared host the same loop can take twice as long from
  // one run to the next, which flipped a run-against-run comparison.
  ResourceTracker tracker;
  double work_us = 0.0;
  const double native_us = TrackedBurnUs(&tracker, &work_us);
  EXPECT_LT(native_us, work_us * 1.4);  // the base frequency adds nothing

  SimulatedHardware::SetCpuFreqGhz(1.5);  // half of the 3.0 base
  const double slowed_us = TrackedBurnUs(&tracker, &work_us);
  SimulatedHardware::SetCpuFreqGhz(0.0);

  // ~2x the work's own time (generous bound).
  EXPECT_GT(slowed_us, work_us * 1.4);
  EXPECT_DOUBLE_EQ(SimulatedHardware::EffectiveFreqGhz(),
                   SimulatedHardware::kBaseFreqGhz);
}

TEST(MetricsManagerTest, RecordOnlyWhenEnabled) {
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(false);
  metrics.Record(OuType::kSeqScan, {1.0}, Labels{});
  EXPECT_EQ(metrics.DrainAll().size(), 0u);
  metrics.SetEnabled(true);
  metrics.Record(OuType::kSeqScan, {1.0}, Labels{});
  metrics.SetEnabled(false);
  EXPECT_EQ(metrics.DrainAll().size(), 1u);
}

TEST(MetricsManagerTest, MultiThreadedRecordsAllCollected) {
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(true);
  constexpr int kThreads = 4, kRecords = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&metrics] {
      for (int i = 0; i < kRecords; i++) {
        metrics.Record(OuType::kArithmetic, {1.0, 2.0, 0.0}, Labels{});
      }
    });
  }
  for (auto &t : threads) t.join();
  metrics.SetEnabled(false);
  auto drained = metrics.DrainAll();
  EXPECT_EQ(drained.size(), static_cast<size_t>(kThreads * kRecords));
  // Thread ids preserved for interference bucketing.
  std::set<uint64_t> tids;
  for (const auto &r : drained) tids.insert(r.thread_id);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(MetricsManagerTest, HardwareContextAppendsFrequencyFeature) {
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  SimulatedHardware::SetAppendContextFeature(true);
  SimulatedHardware::SetCpuFreqGhz(2.2);
  metrics.SetEnabled(true);
  metrics.Record(OuType::kSeqScan, MakeExecFeatures(1, 1, 1, 1, 0, 1, 0), Labels{});
  metrics.SetEnabled(false);
  SimulatedHardware::SetAppendContextFeature(false);
  SimulatedHardware::SetCpuFreqGhz(0.0);
  auto drained = metrics.DrainAll();
  ASSERT_EQ(drained.size(), 1u);
  ASSERT_EQ(drained[0].features.size(), exec_feature::kCount + 1);
  EXPECT_DOUBLE_EQ(drained[0].features.back(), 2.2);
}

TEST(OuTrackerScopeTest, AmendedFeaturesAreRecorded) {
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(true);
  {
    OuTrackerScope scope(OuType::kGarbageCollection, {0.0, 0.0, 5000.0});
    scope.MutableFeatures()[0] = 77.0;  // learned mid-flight
  }
  metrics.SetEnabled(false);
  auto drained = metrics.DrainAll();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_DOUBLE_EQ(drained[0].features[0], 77.0);
}

TEST(OuTrackerScopeTest, DisabledScopeCostsNothingAndRecordsNothing) {
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(false);
  { OuTrackerScope scope(OuType::kSeqScan, {1, 1, 1, 1, 0, 1, 0}); }
  EXPECT_EQ(metrics.DrainAll().size(), 0u);
}

TEST(MetricsManagerTest, ThreadScopedCollectionIsolatesThreads) {
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(false);  // global toggle off: only opted-in threads see records

  // Two sweep-unit threads, each collecting its own OU. Neither drains the
  // other's records, and a bystander thread records nothing at all.
  std::vector<OuRecord> drained_a, drained_b;
  std::thread a([&metrics, &drained_a] {
    metrics.BeginThreadCollection();
    for (int i = 0; i < 100; i++) {
      metrics.Record(OuType::kSeqScan, {1.0}, Labels{});
    }
    metrics.EndThreadCollection();
    drained_a = metrics.DrainThread();
  });
  std::thread b([&metrics, &drained_b] {
    metrics.BeginThreadCollection();
    for (int i = 0; i < 50; i++) {
      metrics.Record(OuType::kSortBuild, {1.0}, Labels{});
    }
    metrics.EndThreadCollection();
    drained_b = metrics.DrainThread();
  });
  std::thread bystander(
      [&metrics] { metrics.Record(OuType::kArithmetic, {1.0}, Labels{}); });
  a.join();
  b.join();
  bystander.join();

  ASSERT_EQ(drained_a.size(), 100u);
  ASSERT_EQ(drained_b.size(), 50u);
  for (const auto &r : drained_a) EXPECT_EQ(r.ou, OuType::kSeqScan);
  for (const auto &r : drained_b) EXPECT_EQ(r.ou, OuType::kSortBuild);
  EXPECT_EQ(metrics.DrainAll().size(), 0u);  // bystander recorded nothing
}

TEST(MetricsManagerTest, DisableThenDrainLosesNoScopeRecords) {
  // Regression test for the lost-record race: a thread that passed the
  // Enabled() check inside OuTrackerScope must get its record into a buffer
  // before a concurrent SetEnabled(false) + DrainAll() completes. DrainAll
  // quiesces open scopes, so records are never stranded for the next drain.
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();

  constexpr int kRounds = 50;
  constexpr int kThreads = 4;
  size_t total_drained = 0;
  std::atomic<int64_t> total_opened{0};
  for (int round = 0; round < kRounds; round++) {
    metrics.SetEnabled(true);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; t++) {
      writers.emplace_back([&metrics, &stop, &total_opened] {
        while (!stop.load(std::memory_order_relaxed)) {
          OuTrackerScope scope(OuType::kArithmetic, {1.0, 1.0, 0.0});
          if (scope.recording()) total_opened.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    metrics.SetEnabled(false);
    total_drained += metrics.DrainAll().size();
    stop.store(true);
    for (auto &w : writers) w.join();
    // Scopes still in flight when the drain ran have since closed; their
    // records land in the buffers and the final drain below picks them up.
  }
  total_drained += metrics.DrainAll().size();
  EXPECT_EQ(total_drained, static_cast<size_t>(total_opened.load()));
}

}  // namespace
}  // namespace mb2
