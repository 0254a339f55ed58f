// End-to-end pipeline tests: OU-runners generate data, ModelBot trains
// OU-models and the interference model, predictions land in a sane range,
// and the data repository round-trips.

#include <gtest/gtest.h>

#include "database.h"
#include "modeling/model_bot.h"
#include "runner/concurrent_runner.h"
#include "runner/data_repository.h"
#include "runner/ou_runner.h"
#include "workload/tpch.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

// Fast algorithms only, to keep the test quick but still exercise
// selection across model families.
std::vector<MlAlgorithm> FastAlgos() {
  return {MlAlgorithm::kLinear, MlAlgorithm::kRandomForest};
}

TEST(IntegrationTest, RunnerTrainPredictPipeline) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  OuRunner runner(&db, cfg);
  std::vector<OuRecord> records;
  auto append = [&records](std::vector<OuRecord> r) {
    records.insert(records.end(), std::make_move_iterator(r.begin()),
                   std::make_move_iterator(r.end()));
  };
  append(runner.RunScanAndFilter());
  append(runner.RunSorts());
  append(runner.RunJoins());
  append(runner.RunAggregates());
  ASSERT_GT(records.size(), 100u);

  // All execution OUs show up.
  std::set<OuType> seen;
  for (const auto &r : records) seen.insert(r.ou);
  EXPECT_TRUE(seen.count(OuType::kSeqScan));
  EXPECT_TRUE(seen.count(OuType::kArithmetic));
  EXPECT_TRUE(seen.count(OuType::kSortBuild));
  EXPECT_TRUE(seen.count(OuType::kSortIterate));
  EXPECT_TRUE(seen.count(OuType::kHashJoinBuild));
  EXPECT_TRUE(seen.count(OuType::kHashJoinProbe));
  EXPECT_TRUE(seen.count(OuType::kAggBuild));
  EXPECT_TRUE(seen.count(OuType::kOutput));

  // Labels are physically sane.
  for (const auto &r : records) {
    EXPECT_GE(r.labels[kLabelElapsedUs], 0.0);
    EXPECT_GE(r.labels[kLabelCycles], 0.0);
  }

  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  TrainingReport report = bot.TrainOuModels(records, FastAlgos());
  EXPECT_GT(report.samples, 0u);
  EXPECT_GT(report.model_bytes, 0u);
  EXPECT_TRUE(bot.GetOuModel(OuType::kSeqScan) != nullptr);

  // Predict a scan over one of the runner's synthetic tables.
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "ou_synth_0";
  PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());
  db.estimator().Estimate(plan.get());
  QueryPrediction prediction = bot.PredictQuery(*plan);
  EXPECT_GE(prediction.ous.size(), 2u);  // scan + output
  EXPECT_GT(prediction.ElapsedUs(), 0.0);
}

TEST(IntegrationTest, DataRepositoryRoundTrip) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {64, 512};
  OuRunner runner(&db, cfg);
  std::vector<OuRecord> records = runner.RunScanAndFilter();
  ASSERT_GT(records.size(), 0u);

  TempDir tmp;
  DataRepository repo(tmp.path());
  ASSERT_TRUE(repo.Save(records).ok());
  EXPECT_GT(repo.TotalBytes(), 0u);
  auto loaded = repo.LoadAll();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), records.size());

  // Spot-check one record round-trips features and labels.
  const OuRecord &a = records[0];
  bool found = false;
  for (const auto &b : loaded.value()) {
    if (b.ou != a.ou || b.features != a.features) continue;
    found = true;
    for (size_t j = 0; j < kNumLabels; j++) {
      EXPECT_NEAR(b.labels[j], a.labels[j],
                  1e-6 * std::max(1.0, std::fabs(a.labels[j])));
    }
    break;
  }
  EXPECT_TRUE(found);
}

TEST(IntegrationTest, InterferenceModelTrainsFromConcurrentRuns) {
  Database db;
  TpchWorkload tpch(&db, 0.002);
  tpch.Load();

  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {64, 512, 4096};
  OuRunner runner(&db, cfg);
  std::vector<OuRecord> ou_records;
  auto append = [&ou_records](std::vector<OuRecord> r) {
    ou_records.insert(ou_records.end(), std::make_move_iterator(r.begin()),
                      std::make_move_iterator(r.end()));
  };
  append(runner.RunScanAndFilter());
  append(runner.RunJoins());
  append(runner.RunAggregates());
  append(runner.RunSorts());

  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  bot.TrainOuModels(ou_records, FastAlgos());

  ConcurrentRunner concurrent(&db, tpch.AllTemplates());
  std::vector<OuRecord> cr = concurrent.Run(ConcurrentRunnerConfig::Small());
  ASSERT_GT(cr.size(), 0u);

  TrainingReport report = bot.TrainInterferenceModel(cr, FastAlgos());
  EXPECT_GT(report.samples, 0u);
  ASSERT_TRUE(bot.interference_model().trained());

  // Ratios must be >= 1 and grow (weakly) with load.
  Labels target{};
  target[kLabelElapsedUs] = 1000.0;
  target[kLabelCpuTimeUs] = 900.0;
  std::vector<Labels> idle(1, Labels{});
  std::vector<Labels> busy(8, target);
  for (auto &t : busy) {
    for (auto &v : t) v *= 50.0;
  }
  const Labels r_idle = bot.interference_model().AdjustmentRatios(target, idle);
  const Labels r_busy = bot.interference_model().AdjustmentRatios(target, busy);
  for (size_t j = 0; j < kNumLabels; j++) {
    EXPECT_GE(r_idle[j], 1.0);
    EXPECT_GE(r_busy[j], 1.0);
  }
}

TEST(IntegrationTest, IntervalPredictionProducesPerTemplateLatencies) {
  Database db;
  TpchWorkload tpch(&db, 0.002);
  tpch.Load();

  OuRunnerConfig cfg = OuRunnerConfig::Small();
  OuRunner runner(&db, cfg);
  std::vector<OuRecord> records;
  auto append = [&records](std::vector<OuRecord> r) {
    records.insert(records.end(), std::make_move_iterator(r.begin()),
                   std::make_move_iterator(r.end()));
  };
  append(runner.RunScanAndFilter());
  append(runner.RunJoins());
  append(runner.RunAggregates());
  append(runner.RunSorts());

  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  bot.TrainOuModels(records, FastAlgos());

  WorkloadForecast forecast;
  forecast.interval_s = 5.0;
  forecast.num_threads = 4;
  for (const auto &name : TpchWorkload::QueryNames()) {
    forecast.entries.push_back({tpch.TemplatePlan(name), 2.0, name});
  }
  IntervalPrediction prediction = bot.PredictInterval(forecast);
  EXPECT_EQ(prediction.query_elapsed_us.size(), 6u);
  EXPECT_GT(prediction.avg_query_elapsed_us, 0.0);
  EXPECT_GE(prediction.cpu_utilization, 0.0);

  // Adding an index-build action must increase (or hold) predicted latency.
  Action build = Action::CreateIndex(
      IndexSchema{"idx_li", tpch.TableName("lineitem"), {0}, false}, 4);
  IntervalPrediction with_action = bot.PredictInterval(forecast, {build});
  EXPECT_GE(with_action.action_elapsed_us, 0.0);
}

TEST(IntegrationTest, DatabaseExecuteSqlFacade) {
  // The string-taking Execute overload drives the full
  // lex → parse → bind → plan → execute pipeline, including DDL, and is
  // shared by embedded users and the network service layer.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE facade (a INTEGER, b DOUBLE)").ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db.Execute("INSERT INTO facade VALUES (" + std::to_string(i) +
                           ", " + std::to_string(i) + ".25)")
                    .ok());
  }
  auto agg = db.Execute("SELECT COUNT(*), SUM(b) FROM facade WHERE a < 4");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg.value().batch.rows.size(), 1u);
  EXPECT_EQ(agg.value().batch.rows[0][0].AsInt(), 4);
  EXPECT_DOUBLE_EQ(agg.value().batch.rows[0][1].AsDouble(),
                   0.25 + 1.25 + 2.25 + 3.25);
  EXPECT_FALSE(db.Execute("SELECT * FROM missing_table").ok());
}

}  // namespace
}  // namespace mb2
