// Modeling-layer tests: OU descriptors, label normalization (including the
// generalization property it exists for), OU-model training, the
// translator's consistency with what the executors actually run, and the
// interference model's feature construction.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <set>
#include <sstream>

#include "database.h"
#include "modeling/model_bot.h"
#include "modeling/normalization.h"
#include "runner/ou_runner.h"
#include "sql/parser.h"

namespace mb2 {
namespace {

// --- Descriptors ---------------------------------------------------------------

TEST(OuDescriptorTest, AllTwentyTwoOusDescribed) {
  EXPECT_EQ(kNumOuTypes, 22u);
  std::set<std::string> names;
  for (size_t t = 0; t < kNumOuTypes; t++) {
    const OuDescriptor &d = GetOuDescriptor(static_cast<OuType>(t));
    EXPECT_FALSE(d.feature_names.empty());
    EXPECT_LE(d.feature_names.size(), 10u);  // low-dimensionality principle
    names.insert(d.name);
  }
  EXPECT_EQ(names.size(), kNumOuTypes);  // unique names
}

TEST(OuDescriptorTest, PaperFeatureCounts) {
  // Table 1: execution OUs 7 features, arithmetic 2 (+ mode), GC 3,
  // index build 5, log serialize 4, log flush 3, txns 2.
  EXPECT_EQ(GetOuDescriptor(OuType::kSeqScan).feature_names.size(), 7u);
  EXPECT_EQ(GetOuDescriptor(OuType::kArithmetic).feature_names.size(), 3u);
  EXPECT_EQ(GetOuDescriptor(OuType::kGarbageCollection).feature_names.size(), 3u);
  EXPECT_EQ(GetOuDescriptor(OuType::kIndexBuild).feature_names.size(), 5u);
  EXPECT_EQ(GetOuDescriptor(OuType::kLogSerialize).feature_names.size(), 4u);
  EXPECT_EQ(GetOuDescriptor(OuType::kLogFlush).feature_names.size(), 3u);
  EXPECT_EQ(GetOuDescriptor(OuType::kTxnBegin).feature_names.size(), 2u);
}

TEST(OuDescriptorTest, PageOuDescriptors) {
  // Block-I/O OUs (DESIGN.md 4i): batch-class, low-dimensional, with the
  // miss-count feature second in PAGE_READ (what the translator estimates).
  EXPECT_EQ(GetOuDescriptor(OuType::kPageRead).feature_names.size(), 4u);
  EXPECT_EQ(GetOuDescriptor(OuType::kPageWrite).feature_names.size(), 3u);
  EXPECT_EQ(GetOuDescriptor(OuType::kPageEvict).feature_names.size(), 2u);
  EXPECT_EQ(GetOuDescriptor(OuType::kPageRead).ou_class, OuClass::kBatch);
  EXPECT_EQ(GetOuDescriptor(OuType::kPageWrite).ou_class, OuClass::kBatch);
  EXPECT_EQ(GetOuDescriptor(OuType::kPageEvict).ou_class, OuClass::kBatch);
}

TEST(OuDescriptorTest, ClassesMatchTable1) {
  EXPECT_EQ(GetOuDescriptor(OuType::kSeqScan).ou_class, OuClass::kSingular);
  EXPECT_EQ(GetOuDescriptor(OuType::kGarbageCollection).ou_class, OuClass::kBatch);
  EXPECT_EQ(GetOuDescriptor(OuType::kLogFlush).ou_class, OuClass::kBatch);
  EXPECT_EQ(GetOuDescriptor(OuType::kIndexBuild).ou_class, OuClass::kContending);
  EXPECT_EQ(GetOuDescriptor(OuType::kTxnCommit).ou_class, OuClass::kContending);
}

// --- Normalization ---------------------------------------------------------------

TEST(NormalizationTest, ComplexityFactors) {
  EXPECT_DOUBLE_EQ(ComplexityFactor(OuComplexity::kConstant, 1000), 1.0);
  EXPECT_DOUBLE_EQ(ComplexityFactor(OuComplexity::kLinear, 1000), 1000.0);
  EXPECT_DOUBLE_EQ(ComplexityFactor(OuComplexity::kNLogN, 1024),
                   1024.0 * 10.0);
  EXPECT_DOUBLE_EQ(ComplexityFactor(OuComplexity::kLinear, 0), 1.0);  // clamp
}

TEST(NormalizationTest, RoundTripIsIdentity) {
  for (size_t t = 0; t < kNumOuTypes; t++) {
    const OuType type = static_cast<OuType>(t);
    const OuDescriptor &d = GetOuDescriptor(type);
    FeatureVector features(d.feature_names.size(), 100.0);
    Labels labels;
    for (size_t j = 0; j < kNumLabels; j++) labels[j] = 1000.0 + j;
    Labels copy = labels;
    NormalizeLabels(type, features, &copy);
    DenormalizeLabels(type, features, &copy);
    for (size_t j = 0; j < kNumLabels; j++) {
      EXPECT_NEAR(copy[j], labels[j], 1e-9) << OuTypeName(type);
    }
  }
}

TEST(NormalizationTest, AggMemoryNormalizesByCardinality) {
  // AGG_BUILD: memory divides by the cardinality feature (index 3), other
  // labels by the row count (index 0).
  FeatureVector features = MakeExecFeatures(1000, 2, 16, 50, 32, 1, 0);
  Labels labels{};
  labels[kLabelElapsedUs] = 2000.0;
  labels[kLabelMemoryBytes] = 5000.0;
  NormalizeLabels(OuType::kAggBuild, features, &labels);
  EXPECT_DOUBLE_EQ(labels[kLabelElapsedUs], 2.0);     // / 1000 rows
  EXPECT_DOUBLE_EQ(labels[kLabelMemoryBytes], 100.0);  // / 50 groups
}

TEST(NormalizationTest, EnablesGeneralizationAcrossScales) {
  // The core Sec 4.3 claim, as a property: train a linear model on
  // O(n)-cost data for n <= 1k; predict at n = 1M. With normalization the
  // prediction is near-perfect; without it, linear extrapolation still
  // works for O(n) but fails for O(n log n). Use sort-like data.
  auto cost = [](double n) { return 3.0 * n * std::log2(std::max(2.0, n)); };
  Matrix x, y_raw;
  for (double n : {32, 64, 128, 256, 512, 1024}) {
    for (double jitter : {0.97, 1.0, 1.03}) {
      FeatureVector f = MakeExecFeatures(n, 2, 16, n, 16, 1, 0);
      x.AppendRow(f);
      std::vector<double> labels(kNumLabels, 0.0);
      labels[kLabelElapsedUs] = cost(n) * jitter;
      y_raw.AppendRow(labels);
    }
  }
  OuModel with_norm(OuType::kSortBuild);
  with_norm.Train(x, y_raw, {MlAlgorithm::kLinear}, /*normalize=*/true);
  OuModel without(OuType::kSortBuild);
  without.Train(x, y_raw, {MlAlgorithm::kLinear}, /*normalize=*/false);

  const double big_n = 1e6;
  const FeatureVector big = MakeExecFeatures(big_n, 2, 16, big_n, 16, 1, 0);
  const double truth = cost(big_n);
  const double err_norm =
      std::fabs(with_norm.Predict(big)[kLabelElapsedUs] - truth) / truth;
  const double err_raw =
      std::fabs(without.Predict(big)[kLabelElapsedUs] - truth) / truth;
  EXPECT_LT(err_norm, 0.05);
  EXPECT_GT(err_raw, 3.0 * err_norm);  // raw extrapolation is much worse
}

// --- OuModel ---------------------------------------------------------------------

TEST(OuModelTest, TrainSelectsAndPredicts) {
  Matrix x, y;
  Rng rng(5);
  for (int i = 0; i < 300; i++) {
    const double n = rng.Uniform(10.0, 10000.0);
    FeatureVector f = MakeExecFeatures(n, 4, 32, n / 2, 0, 1, 0);
    x.AppendRow(f);
    std::vector<double> labels(kNumLabels, 0.0);
    labels[kLabelElapsedUs] = 0.5 * n + rng.Gaussian(0, 1);
    labels[kLabelCpuTimeUs] = 0.4 * n;
    y.AppendRow(labels);
  }
  OuModel model(OuType::kSeqScan);
  model.Train(x, y, {MlAlgorithm::kLinear, MlAlgorithm::kRandomForest});
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.test_errors().size(), 2u);
  EXPECT_GT(model.SerializedBytes(), 0u);
  const Labels pred = model.Predict(MakeExecFeatures(5000, 4, 32, 2500, 0, 1, 0));
  EXPECT_NEAR(pred[kLabelElapsedUs], 2500.0, 250.0);
  EXPECT_GE(pred[kLabelBlockReads], 0.0);  // clamped non-negative
}

TEST(OuModelTest, GroupRecordsByOuSplitsCorrectly) {
  std::vector<OuRecord> records;
  for (int i = 0; i < 5; i++) {
    OuRecord r;
    r.ou = i % 2 == 0 ? OuType::kSeqScan : OuType::kSortBuild;
    r.features = i % 2 == 0 ? MakeExecFeatures(1, 1, 1, 1, 1, 1, 0)
                            : MakeExecFeatures(2, 2, 2, 2, 2, 1, 0);
    records.push_back(r);
  }
  auto datasets = GroupRecordsByOu(records);
  EXPECT_EQ(datasets.size(), 2u);
  EXPECT_EQ(datasets[OuType::kSeqScan].x.rows(), 3u);
  EXPECT_EQ(datasets[OuType::kSortBuild].x.rows(), 2u);
}

// --- Translator ---------------------------------------------------------------------

class TranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeSyntheticTable(&db_, "t", 5000, 100, 3);
    db_.estimator().RefreshStats();
  }

  /// Executes the plan in training mode and returns the OU records its
  /// plan nodes emitted (the transaction, WAL and GC OUs left out).
  std::vector<TranslatedOu> RecordedOus(const PlanNode &plan) {
    auto &metrics = MetricsManager::Instance();
    metrics.DrainAll();
    metrics.SetEnabled(true);
    const QueryResult result = db_.Execute(plan);
    metrics.SetEnabled(false);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    std::vector<TranslatedOu> out;
    for (auto &r : metrics.DrainAll()) {
      if (r.ou > OuType::kOutput && r.ou != OuType::kPageRead) continue;
      out.push_back({r.ou, std::move(r.features)});
    }
    return out;
  }

  std::vector<OuType> ExecutedOus(const PlanNode &plan) {
    return Types(RecordedOus(plan));
  }

  std::vector<OuType> TranslatedOus(const PlanNode &plan, ModelBot &bot) {
    return Types(bot.translator().TranslateQuery(plan));
  }

  static std::vector<OuType> Types(const std::vector<TranslatedOu> &ous) {
    std::vector<OuType> out;
    for (const auto &ou : ous) out.push_back(ou.type);
    return out;
  }

  /// Each OU as its type name and the bit patterns of its features.
  static std::vector<std::string> Bits(const std::vector<TranslatedOu> &ous) {
    std::vector<std::string> out;
    for (const auto &ou : ous) {
      std::ostringstream line;
      line << OuTypeName(ou.type);
      for (double f : ou.features) {
        line << ' ' << f << '/' << std::hex << std::bit_cast<uint64_t>(f)
             << std::dec;
      }
      out.push_back(line.str());
    }
    return out;
  }

  void Sql(const std::string &statement) {
    auto result = sql::ExecuteSql(&db_, statement);
    ASSERT_TRUE(result.ok()) << statement << ": " << result.status().ToString();
    ASSERT_TRUE(result.value().status.ok()) << statement;
  }

  /// Fills `table` with `rows` rows in one INSERT.
  void Insert(const std::string &table, int rows,
              const std::function<std::string(int)> &row) {
    std::string insert = "INSERT INTO " + table + " VALUES ";
    for (int i = 0; i < rows; i++) insert += (i == 0 ? "(" : ", (") + row(i) + ")";
    Sql(insert);
  }

  /// The tables the query shapes below run on: 2000 numeric orders, 97
  /// customers, a 2000-row disk table and a varchar table, plus an index.
  void LoadShapeTables() {
    Sql("CREATE TABLE orders (id INTEGER, cust INTEGER, qty INTEGER, "
        "price DOUBLE)");
    Sql("CREATE TABLE cust (id INTEGER, region INTEGER)");
    Sql("CREATE TABLE ledger (id INTEGER, amt INTEGER) WITH (storage = disk)");
    Sql("CREATE TABLE notes (id INTEGER, tag VARCHAR)");
    auto n = [](int v) { return std::to_string(v); };
    Insert("orders", 2000, [&](int i) {
      return n(i) + ", " + n(i % 97) + ", " + n(i * 37 % 100) + ", " +
             n(i % 50) + ".5";
    });
    Insert("cust", 97, [&](int i) { return n(i) + ", " + n(i % 7); });
    Insert("ledger", 2000, [&](int i) { return n(i) + ", " + n(i * 13 % 500); });
    Insert("notes", 300, [&](int i) { return n(i) + ", 'n" + n(i % 11) + "'"; });
    Sql("CREATE INDEX orders_cust ON orders (cust)");
  }

  /// Runs `statement` in `mode` with fresh statistics and returns its plan's
  /// translated OUs and the OUs its execution recorded.
  std::pair<std::vector<TranslatedOu>, std::vector<TranslatedOu>> PredictAndRun(
      ModelBot &bot, int mode, const std::string &statement) {
    db_.settings().SetInt("execution_mode", mode);
    db_.estimator().RefreshStats();
    auto bound = sql::Parse(&db_, statement);
    EXPECT_TRUE(bound.ok()) << statement;
    if (!bound.ok()) return {};
    const PlanNode &plan = *bound.value().plan;
    auto predicted = bot.translator().TranslateQuery(plan);
    return {std::move(predicted), RecordedOus(plan)};
  }

  Database db_;
};

TEST_F(TranslatorTest, TranslationMatchesExecutionOuForOu) {
  // The same translator drives training and inference (Sec 6.1): for a
  // given plan, the OU multiset it predicts must equal what execution
  // records.
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());

  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  scan->columns = {0, 1};
  scan->predicate = Cmp(CmpOp::kLt, ColRef(0), ConstInt(2500));
  auto agg = std::make_unique<AggregatePlan>();
  agg->group_by = {1};
  agg->terms.push_back({AggFunc::kCount, nullptr});
  agg->children.push_back(std::move(scan));
  auto sort = std::make_unique<SortPlan>();
  sort->sort_keys = {1};
  sort->descending = {false};
  sort->children.push_back(std::move(agg));
  PlanPtr plan = FinalizePlan(std::move(sort), db_.catalog());
  db_.estimator().Estimate(plan.get());

  EXPECT_EQ(TranslatedOus(*plan, bot), ExecutedOus(*plan));
}

TEST_F(TranslatorTest, JoinPlanYieldsBuildAndProbe) {
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());
  auto build = std::make_unique<SeqScanPlan>();
  build->table = "t";
  build->columns = {0};
  auto probe = std::make_unique<SeqScanPlan>();
  probe->table = "t";
  probe->columns = {0};
  auto join = std::make_unique<HashJoinPlan>();
  join->build_keys = {0};
  join->probe_keys = {0};
  join->children.push_back(std::move(build));
  join->children.push_back(std::move(probe));
  PlanPtr plan = FinalizePlan(std::move(join), db_.catalog());
  db_.estimator().Estimate(plan.get());
  EXPECT_EQ(TranslatedOus(*plan, bot), ExecutedOus(*plan));
}

TEST_F(TranslatorTest, TranslatedOusMatchRecordedOusInEveryMode) {
  // One list per plan node serves both sides, so for every shape and
  // execution mode the translator predicts the OU types execution records,
  // in order: the fused vectorized scan included, which records no
  // ARITHMETIC OU of its own.
  LoadShapeTables();
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());
  const std::vector<std::string> shapes = {
      "SELECT * FROM orders",
      "SELECT * FROM orders WHERE qty < 50",
      "SELECT id, qty FROM orders WHERE price > 20",
      "SELECT cust, COUNT(*) FROM orders GROUP BY cust",
      "SELECT cust, SUM(qty) FROM orders WHERE price > 10 GROUP BY cust",
      "SELECT SUM(qty * price) FROM orders",
      "SELECT * FROM orders JOIN cust ON orders.cust = cust.id",
      "SELECT * FROM orders JOIN cust ON orders.cust = cust.id "
      "WHERE cust.region = 3",
      "SELECT id FROM orders ORDER BY 1 DESC LIMIT 5",
      "SELECT * FROM orders WHERE qty < 30 ORDER BY 1 LIMIT 10",
      "SELECT qty + 1 FROM orders",
      "SELECT * FROM orders LIMIT 3",
      "SELECT * FROM orders WHERE cust = 5",
      "SELECT * FROM notes WHERE tag = 'n3'",
      "SELECT * FROM ledger",
      "SELECT * FROM ledger WHERE amt < 100",
      "INSERT INTO orders VALUES (100000, 1, 2, 3.5)",
      "UPDATE orders SET qty = qty + 1",
      "UPDATE orders SET price = price * 2 WHERE qty < 10",
      "DELETE FROM orders WHERE id > 1990",
  };
  for (int mode = 0; mode <= 2; mode++) {
    for (const std::string &shape : shapes) {
      auto [predicted, recorded] = PredictAndRun(bot, mode, shape);
      ASSERT_FALSE(recorded.empty()) << shape;
      EXPECT_EQ(Types(predicted), Types(recorded))
          << "mode " << mode << ": " << shape;
    }
  }
}

TEST_F(TranslatorTest, ExactEstimatesGiveRecordedFeaturesBitForBit) {
  // Where the optimizer's estimates are exact (fresh statistics, numeric
  // rows, unique sort keys, literal INSERT rows), translation and execution
  // fill the same row counts, so the features match bit for bit. A DML
  // statement's OUTPUT sends its one count row.
  LoadShapeTables();
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());
  for (int mode = 0; mode <= 2; mode++) {
    // A new id each time keeps the sort key unique.
    const std::string insert = "INSERT INTO orders VALUES (" +
                               std::to_string(100000 + mode) + ", 1, 2, 3.5)";
    for (const std::string &shape :
         {std::string("SELECT * FROM orders"),
          std::string("SELECT id FROM orders ORDER BY 1 DESC LIMIT 5"),
          std::string("UPDATE orders SET qty = qty + 1"), insert}) {
      auto [predicted, recorded] = PredictAndRun(bot, mode, shape);
      ASSERT_FALSE(recorded.empty()) << shape;
      EXPECT_EQ(Bits(predicted), Bits(recorded))
          << "mode " << mode << ": " << shape;
      EXPECT_EQ(recorded.back().type, OuType::kOutput);
      if (shape.starts_with("UPDATE") || shape.starts_with("INSERT")) {
        EXPECT_EQ(predicted.back().features[exec_feature::kNumRows], 1.0);
      }
    }
  }
}

TEST_F(TranslatorTest, ExecModeOverrideFlowsIntoFeatures) {
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  PlanPtr plan = FinalizePlan(std::move(scan), db_.catalog());
  db_.estimator().Estimate(plan.get());
  auto interp = bot.translator().TranslateQuery(*plan, 0.0);
  auto compiled = bot.translator().TranslateQuery(*plan, 1.0);
  EXPECT_DOUBLE_EQ(interp[0].features[exec_feature::kExecMode], 0.0);
  EXPECT_DOUBLE_EQ(compiled[0].features[exec_feature::kExecMode], 1.0);
}

TEST_F(TranslatorTest, IndexBuildActionFeatures) {
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());
  Action action = Action::CreateIndex(IndexSchema{"i", "t", {1, 2}, false}, 6);
  auto ous = bot.translator().TranslateAction(action);
  ASSERT_EQ(ous.size(), 1u);
  EXPECT_EQ(ous[0].type, OuType::kIndexBuild);
  EXPECT_NEAR(ous[0].features[0], 5000.0, 300.0);  // rows
  EXPECT_DOUBLE_EQ(ous[0].features[1], 2.0);       // key count
  EXPECT_DOUBLE_EQ(ous[0].features[2], 16.0);      // key bytes
  EXPECT_DOUBLE_EQ(ous[0].features[4], 6.0);       // threads
  // Knob changes produce no OUs of their own.
  EXPECT_TRUE(bot.translator()
                  .TranslateAction(Action::ChangeKnob("execution_mode", 1))
                  .empty());
}

TEST_F(TranslatorTest, IntervalMaintenanceScalesWithWrites) {
  ModelBot bot(&db_.catalog(), &db_.estimator(), &db_.settings());
  auto insert = std::make_unique<InsertPlan>();
  insert->table = "t";
  Tuple row(8, Value::Integer(0));
  insert->rows.push_back(row);
  PlanPtr plan = FinalizePlan(std::move(insert), db_.catalog());
  db_.estimator().Estimate(plan.get());

  WorkloadForecast low, high;
  low.interval_s = high.interval_s = 10.0;
  low.entries.push_back({plan.get(), 1.0, "ins"});
  high.entries.push_back({plan.get(), 100.0, "ins"});
  auto low_ous = bot.translator().TranslateIntervalMaintenance(low);
  auto high_ous = bot.translator().TranslateIntervalMaintenance(high);
  ASSERT_FALSE(low_ous.empty());
  ASSERT_EQ(low_ous.size(), high_ous.size());
  // LOG_SERIALIZE bytes scale ~100x with the write rate.
  EXPECT_NEAR(high_ous[0].features[1] / low_ous[0].features[1], 100.0, 1.0);
}

// --- Interference features -------------------------------------------------------

TEST(InterferenceTest, FeatureVectorShapeAndNormalization) {
  Labels target{};
  target[kLabelElapsedUs] = 200.0;
  target[kLabelCpuTimeUs] = 100.0;
  std::vector<Labels> per_thread(2);
  per_thread[0].fill(400.0);
  per_thread[1].fill(800.0);
  const FeatureVector f = InterferenceModel::MakeFeatures(target, per_thread);
  ASSERT_EQ(f.size(), InterferenceModel::kNumFeatures);
  // Target labels divided by its elapsed time.
  EXPECT_DOUBLE_EQ(f[kLabelElapsedUs], 1.0);
  EXPECT_DOUBLE_EQ(f[kLabelCpuTimeUs], 0.5);
  // Sum feature for label 0: (400+800)/200 = 6.
  EXPECT_DOUBLE_EQ(f[kNumLabels], 6.0);
  // Variance feature positive (threads differ).
  EXPECT_GT(f[kNumLabels + 1], 0.0);
}

TEST(InterferenceTest, UntrainedModelReturnsUnitRatios) {
  InterferenceModel model;
  Labels target{};
  target[kLabelElapsedUs] = 100.0;
  const Labels ratios = model.AdjustmentRatios(target, {});
  for (size_t j = 0; j < kNumLabels; j++) EXPECT_DOUBLE_EQ(ratios[j], 1.0);
}

TEST(InterferenceTest, DatasetRatiosAreAtLeastOne) {
  // Synthesize records + a trivially trained OU-model, then check dataset
  // construction clamps and windows correctly.
  Matrix x, y;
  for (int i = 0; i < 50; i++) {
    FeatureVector f = MakeExecFeatures(100, 1, 8, 100, 0, 1, 0);
    x.AppendRow(f);
    std::vector<double> labels(kNumLabels, 10.0);
    y.AppendRow(labels);
  }
  std::map<OuType, std::unique_ptr<OuModel>> models;
  auto model = std::make_unique<OuModel>(OuType::kSeqScan);
  model->Train(x, y, {MlAlgorithm::kLinear});
  models[OuType::kSeqScan] = std::move(model);

  std::vector<OuRecord> records;
  for (int i = 0; i < 30; i++) {
    OuRecord r;
    r.ou = OuType::kSeqScan;
    r.features = MakeExecFeatures(100, 1, 8, 100, 0, 1, 0);
    r.labels.fill(25.0);  // slower than predicted (contention)
    r.thread_id = i % 3;
    r.end_time_us = i * 1000;
    records.push_back(r);
  }
  InterferenceDataset dataset = BuildInterferenceDataset(records, models);
  ASSERT_GT(dataset.x.rows(), 0u);
  EXPECT_EQ(dataset.x.cols(), InterferenceModel::kNumFeatures);
  for (size_t r = 0; r < dataset.y.rows(); r++) {
    for (size_t j = 0; j < dataset.y.cols(); j++) {
      EXPECT_GE(dataset.y.At(r, j), 1.0);
    }
  }
}

}  // namespace
}  // namespace mb2
