// Parallel offline-pipeline tests: parallel model training must be
// bit-identical to serial training for a fixed seed (deterministic per-task
// RNG seeding), and the parallel OU-runner sweep must produce the same
// record coverage as the serial battery.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/thread_pool.h"
#include "metrics/metrics_collector.h"
#include "ml/model_selection.h"
#include "modeling/model_bot.h"
#include "runner/ou_runner.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

/// Deterministic synthetic training records for three execution OUs whose
/// labels are smooth functions of the features plus seeded noise.
std::vector<OuRecord> SyntheticRecords() {
  std::vector<OuRecord> records;
  Rng rng(7);
  for (OuType type :
       {OuType::kSeqScan, OuType::kHashJoinBuild, OuType::kSortBuild}) {
    for (int i = 0; i < 90; i++) {
      const double rows = static_cast<double>(64 << (i % 7));
      const double cols = static_cast<double>(2 + i % 3);
      OuRecord r;
      r.ou = type;
      r.features = MakeExecFeatures(rows, cols, 8.0 * cols, rows, 0.0, 1.0,
                                    static_cast<double>(i % 2));
      const double noise = 0.95 + 0.1 * rng.Uniform(0.0, 1.0);
      r.labels[kLabelElapsedUs] = 0.02 * rows * cols * noise;
      r.labels[kLabelCpuTimeUs] = 0.018 * rows * cols * noise;
      r.labels[kLabelCycles] = 60.0 * rows * cols * noise;
      r.labels[kLabelInstructions] = 24.0 * rows * noise;
      r.labels[kLabelCacheRefs] = 2.0 * rows * noise;
      r.labels[kLabelCacheMisses] = 0.1 * rows * noise;
      r.labels[kLabelBlockReads] = 0.0;
      r.labels[kLabelBlockWrites] = 0.0;
      r.labels[kLabelMemoryBytes] = 16.0 * rows;
      records.push_back(std::move(r));
    }
  }
  return records;
}

std::string FileBytes(const std::string &path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Cheap but stochastic candidate set: the forest proves per-task seeding.
std::vector<MlAlgorithm> TestAlgorithms() {
  return {MlAlgorithm::kLinear, MlAlgorithm::kRandomForest};
}

TEST(ParallelTrainingTest, SelectAndTrainMatchesSerialBitExact) {
  const auto records = SyntheticRecords();
  auto datasets = GroupRecordsByOu(records);
  const OuDataset &ds = datasets.begin()->second;

  SelectionResult serial = SelectAndTrain(ds.x, ds.y, TestAlgorithms(), 42);
  ThreadPool pool(3);
  SelectionResult parallel =
      SelectAndTrain(ds.x, ds.y, TestAlgorithms(), 42, &pool);

  EXPECT_EQ(serial.best_algorithm, parallel.best_algorithm);
  ASSERT_EQ(serial.test_errors.size(), parallel.test_errors.size());
  for (const auto &[algo, err] : serial.test_errors) {
    EXPECT_EQ(err, parallel.test_errors.at(algo)) << MlAlgorithmName(algo);
  }
  // The retrained winners agree exactly on every prediction.
  for (size_t r = 0; r < ds.x.rows(); r += 7) {
    const auto a = serial.final_model->Predict(ds.x.Row(r));
    const auto b = parallel.final_model->Predict(ds.x.Row(r));
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); j++) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(ParallelTrainingTest, CrossValidationMatchesSerialBitExact) {
  const auto records = SyntheticRecords();
  auto datasets = GroupRecordsByOu(records);
  const OuDataset &ds = datasets.begin()->second;

  const auto serial = CrossValidate(ds.x, ds.y, TestAlgorithms(), 4, 42);
  ThreadPool pool(4);
  const auto parallel =
      CrossValidate(ds.x, ds.y, TestAlgorithms(), 4, 42, &pool);

  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto &[algo, err] : serial) {
    EXPECT_EQ(err, parallel.at(algo)) << MlAlgorithmName(algo);
  }
}

TEST(ParallelTrainingTest, TrainOuModelsMatchesSerialModelFiles) {
  const auto records = SyntheticRecords();

  Database db;
  ModelBot serial_bot(&db.catalog(), &db.estimator(), &db.settings());
  TrainingReport serial_report =
      serial_bot.TrainOuModels(records, TestAlgorithms());

  ModelBot parallel_bot(&db.catalog(), &db.estimator(), &db.settings());
  ThreadPool pool(3);
  TrainingReport parallel_report = parallel_bot.TrainOuModels(
      records, TestAlgorithms(), /*normalize=*/true, /*seed=*/42, &pool);

  EXPECT_EQ(serial_report.samples, parallel_report.samples);
  EXPECT_EQ(serial_report.model_bytes, parallel_report.model_bytes);
  ASSERT_EQ(serial_report.per_ou_test_error.size(),
            parallel_report.per_ou_test_error.size());
  for (const auto &[type, err] : serial_report.per_ou_test_error) {
    EXPECT_EQ(err, parallel_report.per_ou_test_error.at(type));
    EXPECT_EQ(serial_report.per_ou_algorithm.at(type),
              parallel_report.per_ou_algorithm.at(type));
  }

  // Byte-identical persisted model sets.
  TempDir dir_a, dir_b;
  ASSERT_TRUE(serial_bot.SaveModels(dir_a.path()).ok());
  ASSERT_TRUE(parallel_bot.SaveModels(dir_b.path()).ok());
  const std::string bytes_a = FileBytes(dir_a.File("mb2_models.bin"));
  const std::string bytes_b = FileBytes(dir_b.File("mb2_models.bin"));
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(ParallelSweepTest, CoversSameOusAsSerialBattery) {
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {64, 512};
  cfg.cardinality_fractions = {1.0};
  cfg.column_counts = {2};
  cfg.index_build_threads = {1, 2};
  cfg.repetitions = 2;
  cfg.warmups = 1;

  Database serial_db;
  OuRunner serial_runner(&serial_db, cfg);
  auto serial_records = serial_runner.RunAll();

  SweepResult sweep = RunParallelSweep(cfg, /*jobs=*/2);
  EXPECT_GT(sweep.records.size(), 0u);
  EXPECT_GT(sweep.runner_seconds, 0.0);
  EXPECT_GT(sweep.wall_seconds, 0.0);

  auto ou_set = [](const std::vector<OuRecord> &records) {
    std::set<OuType> out;
    for (const auto &r : records) out.insert(r.ou);
    return out;
  };
  EXPECT_EQ(ou_set(serial_records), ou_set(sweep.records));

  // Same per-OU record counts: the parallel sweep runs the same configs.
  std::map<OuType, size_t> serial_counts, parallel_counts;
  for (const auto &r : serial_records) serial_counts[r.ou]++;
  for (const auto &r : sweep.records) parallel_counts[r.ou]++;
  for (const auto &[type, n] : serial_counts) {
    EXPECT_EQ(parallel_counts[type], n) << OuTypeName(type);
  }
}

}  // namespace
}  // namespace mb2
