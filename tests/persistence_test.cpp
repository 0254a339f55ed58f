// Model-persistence tests: every regressor family round-trips through the
// binary format with identical predictions; OuModel and ModelBot save/load
// preserve inference behavior; corrupt files are rejected.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/checksum.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "database.h"
#include "modeling/model_bot.h"
#include "ml/model_selection.h"
#include "runner/ou_runner.h"
#include "temp_dir.h"

namespace mb2 {
namespace {

void MakeData(size_t n, Matrix *x, Matrix *y, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; i++) {
    const double a = rng.Uniform(-5.0, 5.0);
    const double b = rng.Uniform(-5.0, 5.0);
    x->AppendRow({a, b});
    y->AppendRow({2 * a - b + 1, a * b});
  }
}

class RegressorRoundTrip : public ::testing::TestWithParam<MlAlgorithm> {};

TEST_P(RegressorRoundTrip, PredictionsSurviveSaveLoad) {
  Matrix x, y;
  MakeData(300, &x, &y, 3);
  auto model = CreateRegressor(GetParam());
  model->Fit(x, y);

  ByteWriter writer;
  SaveRegressor(*model, &writer);
  ByteReader reader(writer.bytes().data(), writer.size());
  std::unique_ptr<Regressor> loaded = LoadRegressor(&reader);
  ASSERT_NE(loaded, nullptr) << MlAlgorithmName(GetParam());
  EXPECT_EQ(loaded->algorithm(), GetParam());

  Rng rng(99);
  for (int i = 0; i < 50; i++) {
    const std::vector<double> probe = {rng.Uniform(-6.0, 6.0),
                                       rng.Uniform(-6.0, 6.0)};
    const auto a = model->Predict(probe);
    const auto b = loaded->Predict(probe);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); j++) {
      ASSERT_DOUBLE_EQ(a[j], b[j]) << MlAlgorithmName(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, RegressorRoundTrip,
                         ::testing::ValuesIn(AllAlgorithms()));

TEST(PersistenceTest, SerializedBytesIsTheExactSavedSize) {
  Matrix x, y;
  MakeData(200, &x, &y, 4);
  for (MlAlgorithm algo : AllAlgorithms()) {
    auto model = CreateRegressor(algo);
    model->Fit(x, y);
    ByteWriter writer;
    SaveRegressor(*model, &writer);
    EXPECT_EQ(model->SerializedBytes(), writer.size()) << MlAlgorithmName(algo);
    // The loader consumes exactly what the saver wrote.
    ByteReader reader(writer.bytes().data(), writer.size());
    ASSERT_NE(LoadRegressor(&reader), nullptr) << MlAlgorithmName(algo);
    EXPECT_EQ(reader.RemainingBytes(), 0) << MlAlgorithmName(algo);
  }
}

TEST(PersistenceTest, OuModelRoundTripWithNormalization) {
  Matrix x, y;
  Rng rng(5);
  for (int i = 0; i < 200; i++) {
    const double n = rng.Uniform(16.0, 4096.0);
    x.AppendRow(MakeExecFeatures(n, 4, 32, n, 0, 1, 0));
    std::vector<double> labels(kNumLabels, 0.0);
    labels[kLabelElapsedUs] = 0.7 * n;
    y.AppendRow(labels);
  }
  OuModel model(OuType::kSeqScan);
  model.Train(x, y, {MlAlgorithm::kRandomForest});

  ByteWriter writer;
  model.Save(&writer);
  ByteReader reader(writer.bytes().data(), writer.size());
  std::unique_ptr<OuModel> loaded = OuModel::Load(&reader);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->type(), OuType::kSeqScan);
  EXPECT_EQ(loaded->best_algorithm(), MlAlgorithm::kRandomForest);

  // Denormalization must work identically (a 10x-larger n than training).
  const FeatureVector probe = MakeExecFeatures(40960, 4, 32, 40960, 0, 1, 0);
  const Labels a = model.Predict(probe);
  const Labels b = loaded->Predict(probe);
  for (size_t j = 0; j < kNumLabels; j++) EXPECT_DOUBLE_EQ(a[j], b[j]);
}

TEST(PersistenceTest, ModelBotSaveLoadPreservesQueryPredictions) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {64, 512, 4096};
  cfg.repetitions = 2;
  OuRunner runner(&db, cfg);
  std::vector<OuRecord> records;
  auto append = [&records](std::vector<OuRecord> r) {
    records.insert(records.end(), std::make_move_iterator(r.begin()),
                   std::make_move_iterator(r.end()));
  };
  append(runner.RunScanAndFilter());
  append(runner.RunSorts());

  ModelBot trained(&db.catalog(), &db.estimator(), &db.settings());
  trained.TrainOuModels(records, {MlAlgorithm::kLinear, MlAlgorithm::kRandomForest});
  TempDir dir;
  ASSERT_TRUE(trained.SaveModels(dir.path()).ok());

  ModelBot deployed(&db.catalog(), &db.estimator(), &db.settings());
  ASSERT_TRUE(deployed.LoadModels(dir.path()).ok());

  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "ou_synth_0";
  scan->predicate = Cmp(CmpOp::kLt, ColRef(0), ConstInt(32));
  auto sort = std::make_unique<SortPlan>();
  sort->sort_keys = {1};
  sort->descending = {false};
  sort->children.push_back(std::move(scan));
  PlanPtr plan = FinalizePlan(std::move(sort), db.catalog());
  db.estimator().Estimate(plan.get());

  const QueryPrediction a = trained.PredictQuery(*plan);
  const QueryPrediction b = deployed.PredictQuery(*plan);
  ASSERT_EQ(a.ous.size(), b.ous.size());
  for (size_t j = 0; j < kNumLabels; j++) {
    EXPECT_DOUBLE_EQ(a.total[j], b.total[j]);
  }
}

TEST(PersistenceTest, CorruptAndMissingFilesRejected) {
  Database db;
  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  TempDir tmp;
  EXPECT_FALSE(bot.LoadModels(tmp.File("missing_dir")).ok());
  EXPECT_FALSE(bot.SaveModels(tmp.File("missing_dir")).ok());  // dir absent

  // Wrong magic.
  {
    FILE *f = std::fopen(tmp.File("mb2_models.bin").c_str(), "wb");
    const uint32_t junk = 0xdeadbeef;
    std::fwrite(&junk, sizeof(junk), 1, f);
    std::fclose(f);
    EXPECT_FALSE(bot.LoadModels(tmp.path()).ok());
  }
}

std::vector<OuRecord> SyntheticRecords(OuType type, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<OuRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; i++) {
    const double rows = rng.Uniform(64.0, 8192.0);
    OuRecord r;
    r.ou = type;
    r.features = MakeExecFeatures(rows, 4, 32, rows, 0, 1, 0);
    r.labels[kLabelElapsedUs] = 0.5 * rows + rng.Uniform(0.0, 2.0);
    r.labels[kLabelCpuTimeUs] = 0.4 * rows;
    records.push_back(std::move(r));
  }
  return records;
}

/// Corruption round-trip, once per regressor family: a model file whose
/// bytes were flipped or whose tail was truncated must fail LoadModels (the
/// CRC32 footer catches both) and leave the deployed bot serving degraded
/// fallback predictions, never silently-garbled models.
class ModelFileCorruption : public ::testing::TestWithParam<MlAlgorithm> {
 protected:
  TempDir tmp_;
};

TEST_P(ModelFileCorruption, FlippedAndTruncatedFilesRejected) {
  Database db;
  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  bot.TrainOuModels(SyntheticRecords(OuType::kSeqScan, 150, 7), {GetParam()});
  ASSERT_NE(bot.GetOuModel(OuType::kSeqScan), nullptr)
      << MlAlgorithmName(GetParam());

  const std::string dir = tmp_.path();
  const std::string path = tmp_.File("mb2_models.bin");
  ASSERT_TRUE(bot.SaveModels(dir).ok());

  // Sanity: the pristine file loads.
  {
    ModelBot deployed(&db.catalog(), &db.estimator(), &db.settings());
    ASSERT_TRUE(deployed.LoadModels(dir).ok()) << MlAlgorithmName(GetParam());
    ASSERT_NE(deployed.GetOuModel(OuType::kSeqScan), nullptr);
  }

  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 16u);

  // Flip one byte in the middle of the payload.
  {
    FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    std::fputc(byte ^ 0x5a, f);
    std::fclose(f);
  }
  {
    ModelBot deployed(&db.catalog(), &db.estimator(), &db.settings());
    EXPECT_FALSE(deployed.LoadModels(dir).ok()) << MlAlgorithmName(GetParam());
    EXPECT_EQ(deployed.GetOuModel(OuType::kSeqScan), nullptr);
  }

  // Rewrite clean, then truncate the tail.
  ASSERT_TRUE(bot.SaveModels(dir).ok());
  std::filesystem::resize_file(path, size / 2);
  {
    ModelBot deployed(&db.catalog(), &db.estimator(), &db.settings());
    EXPECT_FALSE(deployed.LoadModels(dir).ok()) << MlAlgorithmName(GetParam());
    EXPECT_EQ(deployed.GetOuModel(OuType::kSeqScan), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, ModelFileCorruption,
                         ::testing::ValuesIn(AllAlgorithms()));

TEST(PersistenceTest, MissingOuModelServesDegradedFallback) {
  Database db;
  db.catalog().CreateTable("t", Schema({{"id", TypeId::kInteger, 0},
                                        {"v", TypeId::kInteger, 0}}));
  Table *t = db.catalog().GetTable("t");
  auto txn = db.txn_manager().Begin();
  for (int64_t i = 0; i < 64; i++) {
    t->Insert(txn.get(), {Value::Integer(i), Value::Integer(i * 3)});
  }
  db.txn_manager().Commit(txn.get());

  // kSortBuild gets a real model; kSeqScan has too few rows to train, so it
  // only contributes to the fallback table.
  auto records = SyntheticRecords(OuType::kSortBuild, 150, 3);
  auto few = SyntheticRecords(OuType::kSeqScan, 5, 4);
  records.insert(records.end(), few.begin(), few.end());
  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  bot.TrainOuModels(records, {MlAlgorithm::kLinear});
  EXPECT_EQ(bot.GetOuModel(OuType::kSeqScan), nullptr);
  ASSERT_TRUE(bot.fallback_labels().count(OuType::kSeqScan));

  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());
  db.estimator().Estimate(plan.get());

  const QueryPrediction pred = bot.PredictQuery(*plan);
  EXPECT_TRUE(pred.degraded);
  EXPECT_GE(pred.degraded_ous, 1u);

  // The fallback table (and the degraded behavior) survives save/load.
  TempDir dir;
  ASSERT_TRUE(bot.SaveModels(dir.path()).ok());
  ModelBot deployed(&db.catalog(), &db.estimator(), &db.settings());
  ASSERT_TRUE(deployed.LoadModels(dir.path()).ok());
  ASSERT_TRUE(deployed.fallback_labels().count(OuType::kSeqScan));
  const QueryPrediction redeployed = deployed.PredictQuery(*plan);
  EXPECT_TRUE(redeployed.degraded);
  for (size_t j = 0; j < kNumLabels; j++) {
    EXPECT_DOUBLE_EQ(redeployed.total[j], pred.total[j]);
  }
}

TEST(PersistenceTest, SaveIsCrashAtomic) {
  // A save that "crashes" (injected torn write on the temp file) must leave
  // a previously deployed model file untouched and loadable.
  Database db;
  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  bot.TrainOuModels(SyntheticRecords(OuType::kSeqScan, 150, 7),
                    {MlAlgorithm::kLinear});
  TempDir tmp;
  const std::string dir = tmp.path();
  ASSERT_TRUE(bot.SaveModels(dir).ok());

  auto &fi = FaultInjector::Instance();
  fi.Reset();
  FaultSpec spec;
  spec.action = FaultAction::kTornWrite;
  spec.torn_fraction = 0.4;
  spec.max_fires = 1;
  fi.Arm(fault_point::kPersistenceWrite, spec);
  EXPECT_FALSE(bot.SaveModels(dir).ok());
  fi.Reset();

  ModelBot deployed(&db.catalog(), &db.estimator(), &db.settings());
  EXPECT_TRUE(deployed.LoadModels(dir).ok());
  EXPECT_NE(deployed.GetOuModel(OuType::kSeqScan), nullptr);
}

/// Concurrent-runner records for the kSeqScan model SyntheticRecords trains:
/// the same OUs observed `ratio` times slower, spread over four threads in
/// one interference window.
std::vector<OuRecord> SlowedRecords(double ratio) {
  std::vector<OuRecord> records = SyntheticRecords(OuType::kSeqScan, 150, 7);
  for (size_t i = 0; i < records.size(); i++) {
    for (double &label : records[i].labels) label *= ratio;
    records[i].thread_id = i % 4;
    records[i].end_time_us = static_cast<int64_t>(i) * 1000;
  }
  return records;
}

/// A bot with a kSeqScan model and an interference model trained on OUs
/// `ratio` times slower than in isolation (ratio 0: no interference model).
std::unique_ptr<ModelBot> TrainedBot(Database *db, double ratio) {
  auto bot = std::make_unique<ModelBot>(&db->catalog(), &db->estimator(),
                                        &db->settings());
  bot->TrainOuModels(SyntheticRecords(OuType::kSeqScan, 150, 7),
                     {MlAlgorithm::kLinear});
  if (ratio > 0) {
    bot->TrainInterferenceModel(SlowedRecords(ratio), {MlAlgorithm::kLinear});
  }
  return bot;
}

/// The elapsed-time ratio the bot's interference model gives one OU beside
/// three busy threads.
double ElapsedRatio(const ModelBot &bot) {
  Labels target{};
  target[kLabelElapsedUs] = 100.0;
  target[kLabelCpuTimeUs] = 80.0;
  const std::vector<Labels> per_thread(3, target);
  return bot.interference_model().AdjustmentRatios(target,
                                                   per_thread)[kLabelElapsedUs];
}

TEST(PersistenceTest, RejectedLoadKeepsTheInterferenceModel) {
  Database db;
  const auto saved = TrainedBot(&db, 1.9);
  TempDir tmp;
  ASSERT_TRUE(saved->SaveModels(tmp.path()).ok());

  // The saved payload plus one trailing byte, sealed with a valid checksum:
  // it passes the checksum gate and fails the structural check after the
  // interference model has been read.
  const std::string path = tmp.File("mb2_models.bin");
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), sizeof(uint32_t));
  bytes.resize(bytes.size() - sizeof(uint32_t));
  bytes.push_back(0);
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
  }

  const auto deployed = TrainedBot(&db, 1.2);
  const double before = ElapsedRatio(*deployed);
  ASSERT_NE(before, ElapsedRatio(*saved));
  EXPECT_FALSE(deployed->LoadModels(tmp.path()).ok());
  EXPECT_EQ(ElapsedRatio(*deployed), before);
}

TEST(PersistenceTest, LoadWithoutAnInterferenceModelDropsTheOldOne) {
  Database db;
  const auto saved = TrainedBot(&db, 0.0);
  ASSERT_FALSE(saved->interference_model().trained());
  TempDir tmp;
  ASSERT_TRUE(saved->SaveModels(tmp.path()).ok());

  const auto deployed = TrainedBot(&db, 1.2);
  ASSERT_TRUE(deployed->interference_model().trained());
  ASSERT_TRUE(deployed->LoadModels(tmp.path()).ok());
  EXPECT_FALSE(deployed->interference_model().trained());
}

TEST(PersistenceTest, InterferenceModelRoundTrip) {
  Matrix x, y;
  Rng rng(8);
  for (int i = 0; i < 200; i++) {
    std::vector<double> features(InterferenceModel::kNumFeatures, 0.0);
    for (auto &f : features) f = rng.Uniform(0.0, 4.0);
    x.AppendRow(features);
    std::vector<double> ratios(kNumLabels, 1.0 + features[0] * 0.2);
    y.AppendRow(ratios);
  }
  InterferenceModel model;
  model.Train(x, y, {MlAlgorithm::kLinear, MlAlgorithm::kNeuralNetwork});
  ByteWriter writer;
  model.Save(&writer);
  InterferenceModel loaded;
  ByteReader reader(writer.bytes().data(), writer.size());
  loaded.LoadFrom(&reader);
  ASSERT_TRUE(loaded.trained());
  Labels target{};
  target[kLabelElapsedUs] = 100.0;
  std::vector<Labels> per_thread(3, target);
  const Labels a = model.AdjustmentRatios(target, per_thread);
  const Labels b = loaded.AdjustmentRatios(target, per_thread);
  for (size_t j = 0; j < kNumLabels; j++) EXPECT_DOUBLE_EQ(a[j], b[j]);
}

}  // namespace
}  // namespace mb2
