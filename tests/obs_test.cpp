// Observability-subsystem tests (ctest -L obs): striped counters, log-bucket
// histogram percentiles vs an exact sort, Prometheus/JSON exposition, span
// trees assembled from a real query (one span per OU record, on its own
// switch, nested under the WAL's serialize span), MetricsManager
// thread-buffer recycling,
// WorkloadDriver pacing/throughput fixes, and the PredictionCache capacity
// knob-change race (the concurrency cases are what an MB2_TSAN build runs).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "database.h"
#include "metrics/metrics_collector.h"
#include "modeling/model_bot.h"
#include "obs/drift_monitor.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runner/ou_runner.h"
#include "temp_dir.h"
#include "workload/workload_driver.h"

namespace mb2 {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::SetTracingEnabled(false);
    MetricsRegistry::Instance().ResetAll();
    TraceSink::Instance().Clear();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::SetTracingEnabled(false);
  }
};

// --- Counters ---------------------------------------------------------------

TEST_F(ObsTest, CounterMergesAcrossThreads) {
  Counter &c = MetricsRegistry::Instance().GetCounter("test_obs_counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; i++) c.Add();
    });
  }
  for (auto &w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST_F(ObsTest, CounterGatedOffWhenDisabled) {
  Counter &c = MetricsRegistry::Instance().GetCounter("test_obs_gated");
  obs::SetEnabled(false);
  c.Add(100);
  EXPECT_EQ(c.Value(), 0u);
  obs::SetEnabled(true);
  c.Add(100);
  EXPECT_EQ(c.Value(), 100u);
}

// --- Histograms -------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketsAreMonotonic) {
  size_t prev = 0;
  for (double v = Histogram::kMinValue; v < 1e12; v *= 1.07) {
    const size_t b = Histogram::BucketFor(v);
    EXPECT_GE(b, prev);
    EXPECT_LE(Histogram::BucketLowerBound(b), v * (1 + 1e-9));
    prev = b;
  }
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(std::nan("")), 0u);
}

TEST_F(ObsTest, HistogramPercentilesTrackExactSort) {
  Histogram &h = MetricsRegistry::Instance().GetHistogram("test_obs_latency");
  Rng rng(1234);
  std::vector<double> values;
  // Log-normal-ish latencies spanning ~4 orders of magnitude.
  for (int i = 0; i < 20000; i++) {
    const double v = std::exp(rng.Uniform(0.0, 9.0));
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const double approx = h.Percentile(q);
    // 4 buckets/octave + interpolation: within ~20% of the exact answer.
    EXPECT_NEAR(approx, exact, exact * 0.20) << "q=" << q;
  }
  EXPECT_EQ(h.Count(), 20000u);
}

TEST_F(ObsTest, HistogramMergesConcurrentObservers) {
  Histogram &h = MetricsRegistry::Instance().GetHistogram("test_obs_conc");
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&h, t] {
      Rng rng(77 + t);
      for (int i = 0; i < 5000; i++) h.Observe(rng.Uniform(1.0, 1000.0));
    });
  }
  for (auto &w : workers) w.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * 5000u);
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_GT(snap.Mean(), 1.0);
  EXPECT_LT(snap.Mean(), 1000.0);
}

// --- Exposition -------------------------------------------------------------

TEST_F(ObsTest, TextAndJsonExposition) {
  MetricsRegistry::Instance().GetCounter("mb2_test_requests_total").Add(3);
  MetricsRegistry::Instance().GetGauge("mb2_test_temperature").Set(21.5);
  MetricsRegistry::Instance()
      .GetGauge("mb2_test_labeled{ou=\"SEQ_SCAN\"}")
      .Set(0.25);
  Histogram &h = MetricsRegistry::Instance().GetHistogram("mb2_test_lat_us");
  for (int i = 1; i <= 100; i++) h.Observe(static_cast<double>(i));

  const std::string text = DumpMetricsText();
  EXPECT_NE(text.find("# TYPE mb2_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mb2_test_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("mb2_test_temperature 21.5"), std::string::npos);
  // Labeled series: the TYPE line uses the base family name.
  EXPECT_NE(text.find("# TYPE mb2_test_labeled gauge"), std::string::npos);
  EXPECT_NE(text.find("mb2_test_labeled{ou=\"SEQ_SCAN\"} 0.25"),
            std::string::npos);
  EXPECT_NE(text.find("mb2_test_lat_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("mb2_test_lat_us_count 100"), std::string::npos);

  const std::string json = DumpMetricsJson();
  EXPECT_NE(json.find("\"mb2_test_requests_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- Trace spans ------------------------------------------------------------

TEST_F(ObsTest, SpanParentageOnOneThread) {
  obs::SetTracingEnabled(true);
  TraceSink::Instance().Clear();
  {
    ObsSpan root("test.root");
    {
      ObsSpan child("test.child");
      ObsSpan grandchild("test.grandchild");
      (void)grandchild;
      (void)child;
    }
    ObsSpan sibling("test.sibling");
    (void)sibling;
    (void)root;
  }
  const std::vector<SpanRecord> spans = TraceSink::Instance().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  auto find = [&](const char *name) -> const SpanRecord & {
    for (const auto &s : spans) {
      if (std::string(s.name) == name) return s;
    }
    ADD_FAILURE() << "span not found: " << name;
    static SpanRecord none;
    return none;
  };
  const SpanRecord &root = find("test.root");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(find("test.child").parent_id, root.span_id);
  EXPECT_EQ(find("test.grandchild").parent_id, find("test.child").span_id);
  EXPECT_EQ(find("test.sibling").parent_id, root.span_id);
  EXPECT_GE(find("test.child").duration_us, 0.0);

  const std::string tree = FormatSpanTree(spans);
  EXPECT_NE(tree.find("test.root"), std::string::npos);
  EXPECT_NE(tree.find("test.grandchild"), std::string::npos);
}

TEST_F(ObsTest, QueryProducesSpanTree) {
  Database db;
  MakeSyntheticTable(&db, "t", 200, 50, 42);
  db.estimator().RefreshStats();
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());
  db.estimator().Estimate(plan.get());

  obs::SetTracingEnabled(true);
  TraceSink::Instance().Clear();
  const QueryResult result = db.Execute(*plan);
  obs::SetTracingEnabled(false);
  ASSERT_TRUE(result.status.ok());

  const std::vector<SpanRecord> spans = TraceSink::Instance().Snapshot();
  uint64_t root_id = 0;
  for (const auto &s : spans) {
    if (std::string(s.name) == "engine.execute_query") root_id = s.span_id;
  }
  ASSERT_NE(root_id, 0u) << "query root span missing";
  // txn.begin, the executor pipeline, and txn.commit must all be children
  // (or descendants) of the query root.
  bool saw_begin = false, saw_exec = false, saw_commit = false;
  for (const auto &s : spans) {
    if (s.parent_id != root_id) continue;
    const std::string name = s.name;
    saw_begin |= name == "txn.begin";
    saw_exec |= name.rfind("exec.", 0) == 0;
    saw_commit |= name == "txn.commit";
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_commit);
}

// --- One span per OU -------------------------------------------------------

/// Its OUs: TXN_BEGIN, two SEQ_SCANs, HASHJOIN_BUILD and _PROBE, AGG_BUILD
/// and _PROBE, OUTPUT and TXN_COMMIT.
constexpr const char *kJoinAggQuery =
    "SELECT grp, SUM(v) FROM facts JOIN dims ON grp = gid GROUP BY grp";

void MakeJoinTables(Database *db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE facts (id INTEGER, grp INTEGER, "
                          "v DOUBLE)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE dims (gid INTEGER, w DOUBLE)").ok());
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(db->Execute("INSERT INTO facts VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i % 8) + ", " +
                            std::to_string(i) + ".5)").ok());
  }
  for (int g = 0; g < 8; g++) {
    ASSERT_TRUE(db->Execute("INSERT INTO dims VALUES (" + std::to_string(g) +
                            ", 1.0)").ok());
  }
  db->estimator().RefreshStats();
}

/// Runs `sql` under the current switches. Returns the spans below its
/// engine.execute_query root, in the order they closed, and this thread's
/// OU records, in the order they were made.
void RunTraced(Database *db, const std::string &sql,
               std::vector<SpanRecord> *spans, std::vector<OuRecord> *records) {
  TraceSink::Instance().Clear();
  MetricsManager::Instance().DrainAll();
  auto result = db->Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().status.ok());
  const std::vector<SpanRecord> all = TraceSink::Instance().Snapshot();
  std::map<uint64_t, uint64_t> parent_of;
  uint64_t root = 0;
  for (const SpanRecord &span : all) {
    parent_of[span.span_id] = span.parent_id;
    if (std::string(span.name) == "engine.execute_query") root = span.span_id;
  }
  for (const SpanRecord &span : all) {
    uint64_t up = span.parent_id;
    while (up != 0 && up != root) up = parent_of.count(up) ? parent_of[up] : 0;
    if (root != 0 && up == root) spans->push_back(span);
  }
  const uint64_t me = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (OuRecord &record : MetricsManager::Instance().DrainAll()) {
    if (record.thread_id == me) records->push_back(std::move(record));
  }
}

const SpanRecord *FindSpan(const std::vector<SpanRecord> &spans,
                           const char *name) {
  for (const SpanRecord &span : spans) {
    if (std::string(span.name) == name) return &span;
  }
  ADD_FAILURE() << "span not found: " << name;
  return nullptr;
}

TEST_F(ObsTest, TracedQueryHasOneSpanPerOuRecord) {
  Database db;
  MakeJoinTables(&db);
  for (int64_t mode : {0, 1, 2}) {
    ASSERT_TRUE(db.settings().SetInt("execution_mode", mode).ok());
    db.Execute(kJoinAggQuery);  // warm the plan cache
    obs::SetTracingEnabled(true);
    MetricsManager::Instance().SetEnabled(true);
    std::vector<SpanRecord> spans;
    std::vector<OuRecord> records;
    RunTraced(&db, kJoinAggQuery, &spans, &records);
    MetricsManager::Instance().SetEnabled(false);
    obs::SetTracingEnabled(false);

    ASSERT_EQ(records.size(), 9u) << "mode " << mode;
    ASSERT_EQ(spans.size(), records.size()) << "mode " << mode;
    for (size_t i = 0; i < spans.size(); i++) {
      EXPECT_STREQ(spans[i].name, GetOuDescriptor(records[i].ou).span_name)
          << "mode " << mode << " OU " << i;
      // The span's duration is the OU's elapsed_us label, bit for bit.
      EXPECT_EQ(std::bit_cast<uint64_t>(spans[i].duration_us),
                std::bit_cast<uint64_t>(records[i].labels[kLabelElapsedUs]))
          << "mode " << mode << " " << spans[i].name;
    }
  }
}

TEST_F(ObsTest, OuSpansAndOuRecordsHaveIndependentSwitches) {
  Database db;
  MakeJoinTables(&db);
  DriftMonitor::Instance().SetSamplingEnabled(false);
  SimulatedHardware::SetCpuFreqGhz(0.0);
  MetricsManager::Instance().SetEnabled(false);
  db.Execute(kJoinAggQuery);

  // Tracing alone: the OU spans, and no records.
  obs::SetTracingEnabled(true);
  std::vector<SpanRecord> spans;
  std::vector<OuRecord> records;
  RunTraced(&db, kJoinAggQuery, &spans, &records);
  obs::SetTracingEnabled(false);
  EXPECT_EQ(spans.size(), 9u);
  EXPECT_TRUE(records.empty());
  FindSpan(spans, "txn.begin");
  FindSpan(spans, "exec.hashjoin_build");
  FindSpan(spans, "exec.agg_probe");
  FindSpan(spans, "txn.commit");

  // Every switch off: neither spans nor records.
  spans.clear();
  RunTraced(&db, kJoinAggQuery, &spans, &records);
  EXPECT_TRUE(TraceSink::Instance().Snapshot().empty());
  EXPECT_TRUE(records.empty());
}

TEST_F(ObsTest, CommitSpanNestsInsideSerializeSpanUnderWal) {
  TempDir dir;
  Database::Options options;
  options.wal_path = dir.File("wal.log");
  Database db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE kv (k INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(db.settings().SetInt("wal_sync_commit", 1).ok());
  obs::SetTracingEnabled(true);
  std::vector<SpanRecord> spans;
  std::vector<OuRecord> records;
  RunTraced(&db, "INSERT INTO kv VALUES (1, 2)", &spans, &records);
  obs::SetTracingEnabled(false);

  // LOG_SERIALIZE's scope lives from Encode to the end of Commit, so the
  // commit section and the sync-commit flush are its children.
  const SpanRecord *serialize = FindSpan(spans, "wal.serialize");
  const SpanRecord *commit = FindSpan(spans, "txn.commit");
  const SpanRecord *flush = FindSpan(spans, "wal.flush");
  ASSERT_TRUE(serialize != nullptr && commit != nullptr && flush != nullptr);
  EXPECT_EQ(commit->parent_id, serialize->span_id);
  EXPECT_EQ(flush->parent_id, serialize->span_id);
}

TEST_F(ObsTest, SpanRingOverwritesOldest) {
  obs::SetTracingEnabled(true);
  TraceSink::Instance().Clear();
  for (size_t i = 0; i < TraceSink::kCapacity + 100; i++) {
    ObsSpan s("test.ring");
    (void)s;
  }
  const std::vector<SpanRecord> spans = TraceSink::Instance().Snapshot();
  EXPECT_EQ(spans.size(), TraceSink::kCapacity);
}

// --- MetricsManager buffer recycling ----------------------------------------

TEST_F(ObsTest, RepeatedDriverRunsKeepBufferRegistryBounded) {
  MetricsManager &mm = MetricsManager::Instance();
  mm.SetEnabled(true);
  constexpr uint32_t kThreads = 4;
  const size_t before = mm.RegisteredBufferCount();
  for (int run = 0; run < 10; run++) {
    WorkloadDriver::Run(
        [](Rng *) {
          MetricsManager::Instance().Record(OuType::kTxnBegin, {1.0, 0.0}, {});
          return 1.0;
        },
        kThreads, /*rate_per_thread=*/0.0, /*duration_s=*/0.01,
        /*seed=*/run);
    // Harvest so the exited workers' buffers become adoptable.
    mm.DrainAll();
  }
  mm.SetEnabled(false);
  mm.DrainAll();
  const size_t after = mm.RegisteredBufferCount();
  // Without recycling this grows by kThreads per run (40 here). With it, the
  // fleet of run N adopts the drained buffers of run N-1.
  EXPECT_LE(after - before, static_cast<size_t>(kThreads) + 1);
}

// --- WorkloadDriver pacing / throughput -------------------------------------

TEST(WorkloadDriverTest, AdvanceNextFireResyncsWhenBehind) {
  // On schedule: advance by exactly one period.
  EXPECT_EQ(WorkloadDriver::AdvanceNextFire(1000, 1100, 500), 1500);
  // Less than one period behind after advancing: keep the schedule (catch up).
  EXPECT_EQ(WorkloadDriver::AdvanceNextFire(1000, 1900, 500), 1500);
  // More than one period behind: resync to now, shedding the backlog instead
  // of firing a zero-sleep burst.
  EXPECT_EQ(WorkloadDriver::AdvanceNextFire(1000, 5000, 500), 5000);
}

TEST(WorkloadDriverTest, ThroughputUsesMeasuredElapsed) {
  const DriverResult result = WorkloadDriver::Run(
      [](Rng *) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return 2000.0;
      },
      /*threads=*/2, /*rate_per_thread=*/0.0, /*duration_s=*/0.05);
  ASSERT_GT(result.committed, 0u);
  EXPECT_GE(result.elapsed_s, 0.05 * 0.9);
  // Throughput is committed / measured wall time, not / nominal duration.
  EXPECT_NEAR(result.throughput,
              static_cast<double>(result.committed) / result.elapsed_s,
              result.throughput * 1e-6 + 1e-9);
}

TEST(WorkloadDriverTest, OpenLoopPacingSurvivesSlowTransactions) {
  // 1 kHz nominal rate but each txn takes ~5 ms: the driver must not spin a
  // compensating burst; committed stays near elapsed/5ms per thread.
  const DriverResult result = WorkloadDriver::Run(
      [](Rng *) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 5000.0;
      },
      /*threads=*/1, /*rate_per_thread=*/1000.0, /*duration_s=*/0.1);
  EXPECT_GT(result.committed, 0u);
  EXPECT_LE(result.committed, 40u);  // ~20 expected; burst would blow past
}

// --- PredictionCache capacity race (TSan target) ----------------------------

class KnobRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    bot_ = std::make_unique<ModelBot>(&db_->catalog(), &db_->estimator(),
                                      &db_->settings());
    std::vector<OuRecord> records;
    const size_t dim = GetOuDescriptor(OuType::kSeqScan).feature_names.size();
    for (size_t i = 0; i < 12; i++) {
      FeatureVector f(dim);
      for (size_t j = 0; j < dim; j++) {
        f[j] = 1.0 + static_cast<double>((3 * i + j) % 16);
      }
      for (int o = 0; o < 3; o++) {
        OuRecord r;
        r.ou = OuType::kSeqScan;
        r.features = f;
        for (size_t j = 0; j < kNumLabels; j++) r.labels[j] = 2.0 + f[0] + j;
        records.push_back(std::move(r));
      }
      features_.push_back(std::move(f));
    }
    bot_->TrainOuModels(records, {MlAlgorithm::kLinear}, /*normalize=*/false);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ModelBot> bot_;
  std::vector<FeatureVector> features_;
};

TEST_F(KnobRaceTest, ConcurrentServingAndCapacityKnobChanges) {
  // Regression (TSan): PredictionCache::capacity_ was a plain size_t read by
  // Lookup/Insert while SetCapacity wrote it from the knob on every serving
  // call. Serve from several threads while another flips the knob; the run
  // must be race-free and every answer must equal the direct model output.
  std::vector<TranslatedOu> ous;
  for (const FeatureVector &f : features_) ous.push_back({OuType::kSeqScan, f});
  const std::vector<Labels> expected = bot_->PredictOus(ous);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> servers;
  for (int t = 0; t < 4; t++) {
    servers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<Labels> got = bot_->PredictOus(ous);
        for (size_t i = 0; i < got.size(); i++) {
          if (got[i][kLabelElapsedUs] != expected[i][kLabelElapsedUs]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread tuner([&] {
    const double caps[] = {0.0, 2.0, 4096.0, 8.0};
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          db_->settings().SetDouble("ou_cache_capacity", caps[i++ % 4]).ok());
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto &s : servers) s.join();
  tuner.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace mb2
