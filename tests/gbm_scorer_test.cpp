// Gradient boosting's QuickScorer against the per-tree walk it replaced, bit
// for bit: base_ plus AccumulatePredictions(x, learning_rate) over the saved
// trees in order, for batches and single rows, on NaN, ±inf, -0.0 and values
// exactly at split thresholds, before and after a save/load round trip.
// Also the tree loader's structural checks: a model file with a valid
// checksum but a broken tree is rejected instead of walked.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "common/rng.h"
#include "common/serde.h"
#include "database.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "modeling/ou_model.h"
#include "runner/ou_runner.h"

namespace mb2 {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The walk, rebuilt from the model's saved bytes
/// ([f64 learning rate][doubles base][u32 n][n trees]).
struct Walk {
  double learning_rate = 0.0;
  std::vector<double> base;
  std::vector<std::unique_ptr<DecisionTree>> trees;

  explicit Walk(const Regressor &model) {
    ByteWriter writer;
    model.Save(&writer);
    ByteReader reader(writer.bytes().data(), writer.size());
    learning_rate = reader.Get<double>();
    base = reader.GetDoubles();
    const uint32_t n = reader.Get<uint32_t>();
    for (uint32_t i = 0; i < n; i++) {
      trees.push_back(std::make_unique<DecisionTree>());
      trees.back()->LoadFrom(&reader);
    }
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.RemainingBytes(), 0);
  }

  Matrix Predict(const Matrix &x) const {
    Matrix out(x.rows(), base.size());
    for (size_t r = 0; r < x.rows(); r++) {
      for (size_t j = 0; j < base.size(); j++) out.At(r, j) = base[j];
    }
    for (const auto &tree : trees) {
      tree->AccumulatePredictions(x, learning_rate, &out);
    }
    return out;
  }
};

void ExpectScorerMatchesWalk(const Regressor &model, const Matrix &queries,
                             const std::string &what) {
  const Walk walk(model);
  const Matrix expected = walk.Predict(queries);
  Matrix batched;
  model.PredictBatch(queries, &batched);
  ASSERT_EQ(batched.rows(), queries.rows()) << what;
  ASSERT_EQ(batched.cols(), walk.base.size()) << what;
  for (size_t r = 0; r < queries.rows(); r++) {
    const std::vector<double> single = model.Predict(queries.Row(r));
    ASSERT_EQ(single.size(), walk.base.size()) << what;
    for (size_t j = 0; j < single.size(); j++) {
      ASSERT_EQ(BitsOf(batched.At(r, j)), BitsOf(expected.At(r, j)))
          << what << ": batched row " << r << " col " << j;
      ASSERT_EQ(BitsOf(single[j]), BitsOf(expected.At(r, j)))
          << what << ": single row " << r << " col " << j;
    }
  }
}

Matrix RandomRows(size_t n, const Matrix &like, Rng *rng) {
  Matrix out;
  std::vector<double> row(like.cols());
  for (size_t i = 0; i < n; i++) {
    const std::vector<double> source =
        like.Row(static_cast<size_t>(rng->Uniform(0, like.rows() - 1)));
    for (size_t j = 0; j < row.size(); j++) {
      row[j] = rng->Uniform(0, 3) == 0 ? source[j]
                                       : source[j] * rng->Uniform(0.5, 1.5);
    }
    out.AppendRow(row.data(), row.size());
  }
  return out;
}

/// Rows that put one feature exactly on a split threshold (and one ulp to
/// either side), or on NaN, ±inf, -0.0 or 0.0; plus all-NaN and all-inf rows.
Matrix EdgeRows(const Regressor &model, const Matrix &like, Rng *rng) {
  const Walk walk(model);
  Matrix out;
  auto add = [&](size_t feature, double value) {
    std::vector<double> row =
        like.Row(static_cast<size_t>(rng->Uniform(0, like.rows() - 1)));
    row[feature] = value;
    out.AppendRow(row.data(), row.size());
  };
  for (size_t h = 0; h < walk.trees.size(); h += 3) {
    for (const DecisionTree::Node &node : walk.trees[h]->nodes()) {
      if (node.feature < 0) continue;
      const size_t f = static_cast<size_t>(node.feature);
      add(f, node.threshold);
      add(f, std::nextafter(node.threshold, -std::numeric_limits<double>::infinity()));
      add(f, std::nextafter(node.threshold, std::numeric_limits<double>::infinity()));
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t f = 0; f < like.cols(); f++) {
    for (double v : {std::nan(""), inf, -inf, -0.0, 0.0}) add(f, v);
  }
  for (double v : {std::nan(""), inf, -inf, -0.0}) {
    const std::vector<double> row(like.cols(), v);
    out.AppendRow(row.data(), row.size());
  }
  return out;
}

void CheckAllShapes(const Regressor &model, const Matrix &train,
                    const std::string &what) {
  Rng rng(97);
  for (size_t n : {size_t{0}, size_t{1}, size_t{13}, size_t{256}}) {
    ExpectScorerMatchesWalk(model, RandomRows(n, train, &rng),
                            what + " batch " + std::to_string(n));
  }
  ExpectScorerMatchesWalk(model, train, what + " training rows");
  ExpectScorerMatchesWalk(model, EdgeRows(model, train, &rng), what + " edges");
}

std::unique_ptr<Regressor> RoundTrip(const Regressor &model) {
  ByteWriter writer;
  SaveRegressor(model, &writer);
  ByteReader reader(writer.bytes().data(), writer.size());
  auto loaded = LoadRegressor(&reader);
  EXPECT_NE(loaded, nullptr);
  // Save writes the same bytes after a load: the scorer is never stored.
  ByteWriter again;
  SaveRegressor(*loaded, &again);
  EXPECT_EQ(again.bytes(), writer.bytes());
  return loaded;
}

/// batch_inference_test's mixed-curvature data, with `outputs` targets.
void MakeData(size_t n, size_t outputs, Matrix *x, Matrix *y, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; i++) {
    const double a = rng.Uniform(-4.0, 4.0);
    const double b = rng.Uniform(-4.0, 4.0);
    const double c = rng.Uniform(0.0, 8.0);
    x->AppendRow({a, b, c});
    std::vector<double> target;
    for (size_t j = 0; j < outputs; j++) {
      const double s = static_cast<double>(j);
      target.push_back((j % 3 == 0)   ? 3 * a - b + 0.5 * c + 7 + s
                       : (j % 3 == 1) ? a * b + c * c - s
                                      : -a + 0.1 * b * c * s);
    }
    y->AppendRow(target.data(), target.size());
  }
}

TEST(GbmScorerTest, MatchesWalkOnMakeData) {
  // 3 outputs fill part of one 9-lane pass; 11 need a second pass.
  for (size_t outputs : {size_t{3}, size_t{11}}) {
    Matrix x, y;
    MakeData(300, outputs, &x, &y, 11);
    auto model = CreateRegressor(MlAlgorithm::kGradientBoosting, 42);
    model->Fit(x, y);
    const std::string what = "MakeData k=" + std::to_string(outputs);
    CheckAllShapes(*model, x, what);
    CheckAllShapes(*RoundTrip(*model), x, what + " reloaded");
  }
}

TEST(GbmScorerTest, MatchesWalkWithSharedThresholds) {
  // Small-integer features: every tree splits at the same midpoints, 0.0
  // among them, so equal thresholds from many trees sit side by side.
  Rng rng(5);
  Matrix x, y;
  for (size_t i = 0; i < 400; i++) {
    const double a = static_cast<double>(2 * rng.Uniform(-2, 2) - 1);
    const double b = static_cast<double>(rng.Uniform(0, 3));
    x.AppendRow({a, b});
    y.AppendRow({a * b + rng.Uniform(0.0, 0.1), a - b});
  }
  auto model = CreateRegressor(MlAlgorithm::kGradientBoosting, 7);
  model->Fit(x, y);
  CheckAllShapes(*model, x, "integer grid");
}

TEST(GbmScorerTest, MatchesWalkOnOuRunnerSweep) {
  Database db;
  OuRunnerConfig cfg = OuRunnerConfig::Small();
  cfg.row_counts = {64, 512};
  OuRunner runner(&db, cfg);
  std::vector<OuRecord> records = runner.RunScanAndFilter();
  for (OuRecord &r : runner.RunAggregates()) records.push_back(std::move(r));
  for (OuRecord &r : runner.RunDml()) records.push_back(std::move(r));
  size_t models = 0;
  for (const auto &[type, data] : GroupRecordsByOu(records)) {
    if (data.x.rows() < 16) continue;
    auto model = CreateRegressor(MlAlgorithm::kGradientBoosting, 42);
    model->Fit(data.x, data.y);
    const std::string what = OuTypeName(type);
    CheckAllShapes(*model, data.x, what);
    CheckAllShapes(*RoundTrip(*model), data.x, what + " reloaded");
    models++;
  }
  EXPECT_GE(models, 4u);
}

TEST(GbmScorerTest, UnfittedAndEmptyFitPredictBase) {
  GradientBoosting unfitted;
  EXPECT_TRUE(unfitted.Predict({1.0, 2.0}).empty());
  // 11 outputs take a second accumulator chunk over an empty leaf array.
  for (size_t k : {size_t{3}, size_t{11}}) {
    Matrix x(0, 2), y(0, k), out;
    GradientBoosting empty;
    empty.Fit(x, y);
    EXPECT_EQ(empty.Predict({1.0, 2.0}), std::vector<double>(k, 0.0));
    Matrix one(1, 2);
    empty.PredictBatch(one, &out);
    ASSERT_EQ(out.cols(), k);
    EXPECT_EQ(out.At(0, k - 1), 0.0);
  }
}

// --- Structural checks in the tree loader ------------------------------------

constexpr uint64_t kFlatTreeFlag = 1ull << 63;

/// A three-node tree: root splits feature 0 at `threshold` into children
/// `left` and `right`; nodes 1 and 2 are leaves of `width` values each.
void PutTree(ByteWriter *w, int32_t left, int32_t right, size_t width = 2,
             int32_t leaf_feature = -1, double threshold = 0.5) {
  w->Put<uint64_t>(3 | kFlatTreeFlag);
  w->Put<int32_t>(0);
  w->Put<double>(threshold);
  w->Put<int32_t>(left);
  w->Put<int32_t>(right);
  w->Put<int32_t>(-1);
  for (int32_t leaf = 0; leaf < 2; leaf++) {
    w->Put<int32_t>(leaf_feature);
    w->Put<double>(0.0);
    w->Put<int32_t>(-1);
    w->Put<int32_t>(-1);
    w->Put<int32_t>(leaf * static_cast<int32_t>(width));
  }
  w->Put<uint64_t>(width);
  std::vector<double> values;
  for (size_t i = 0; i < 2 * width; i++) values.push_back(1.0 + static_cast<double>(i));
  w->PutDoubles(values);
}

bool TreeLoads(const ByteWriter &w) {
  ByteReader reader(w.bytes().data(), w.size());
  DecisionTree tree;
  tree.LoadFrom(&reader);
  return reader.ok();
}

/// A GBM file (tag included) holding `base` and `count` trees' bytes.
std::unique_ptr<Regressor> LoadGbm(const std::vector<double> &base,
                                   const ByteWriter &tree, uint32_t count = 1) {
  ByteWriter w;
  w.Put<uint8_t>(static_cast<uint8_t>(MlAlgorithm::kGradientBoosting));
  w.Put<double>(0.5);
  w.PutDoubles(base);
  w.Put<uint32_t>(count);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.insert(bytes.end(), tree.bytes().begin(), tree.bytes().end());
  ByteReader reader(bytes.data(), bytes.size());
  return LoadRegressor(&reader);
}

TEST(TreePersistenceTest, HandMadeTreeLoadsAndPredicts) {
  ByteWriter w;
  PutTree(&w, 1, 2);
  EXPECT_TRUE(TreeLoads(w));
  auto gbm = LoadGbm({10.0, 20.0}, w);
  ASSERT_NE(gbm, nullptr);
  // Left leaf {1, 2}, right leaf {3, 4}; NaN goes right.
  EXPECT_EQ(gbm->Predict({0.5}), (std::vector<double>{10.5, 21.0}));
  EXPECT_EQ(gbm->Predict({0.75}), (std::vector<double>{11.5, 22.0}));
  EXPECT_EQ(gbm->Predict({std::nan("")}), (std::vector<double>{11.5, 22.0}));
}

TEST(TreePersistenceTest, GbmFileWithNoTreesPredictsBase) {
  std::vector<double> base;
  for (size_t j = 0; j < 10; j++) base.push_back(0.25 * static_cast<double>(j));
  auto gbm = LoadGbm(base, ByteWriter(), 0);
  ASSERT_NE(gbm, nullptr);
  EXPECT_EQ(gbm->Predict({0.5}), base);
  Matrix rows, out;
  rows.AppendRow({0.5});
  rows.AppendRow({std::nan("")});
  gbm->PredictBatch(rows, &out);
  ASSERT_EQ(out.cols(), base.size());
  for (size_t r = 0; r < out.rows(); r++) {
    for (size_t j = 0; j < base.size(); j++) EXPECT_EQ(out.At(r, j), base[j]);
  }
}

TEST(GbmScorerTest, NaNThresholdFailsEveryRow) {
  // NaN <= t is false for every row, so the walk goes right at a NaN
  // threshold whatever the row holds; the scorer must fail it too, while a
  // finite threshold on the same feature still sends small rows left.
  ByteWriter w;
  PutTree(&w, 1, 2, 2, -1, std::nan(""));
  PutTree(&w, 1, 2, 2, -1, 0.5);
  PutTree(&w, 1, 2, 2, -1, std::numeric_limits<double>::infinity());
  auto gbm = LoadGbm({10.0, 20.0}, w, 3);
  ASSERT_NE(gbm, nullptr);
  Matrix rows;
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {0.2, 0.5, 0.7, inf, -inf, -0.0, std::nan("")}) rows.AppendRow({v});
  ExpectScorerMatchesWalk(*gbm, rows, "NaN threshold");
  EXPECT_EQ(gbm->Predict({0.2}), (std::vector<double>{12.5, 24.0}));
}

TEST(TreePersistenceTest, ChildBeyondNodeArrayIsRejected) {
  ByteWriter w;
  PutTree(&w, 1, 3);
  EXPECT_FALSE(TreeLoads(w));
  EXPECT_EQ(LoadGbm({10.0, 20.0}, w), nullptr);
}

TEST(TreePersistenceTest, ChildEqualToItsOwnIdIsRejected) {
  ByteWriter w;
  PutTree(&w, 0, 2);
  EXPECT_FALSE(TreeLoads(w));
  EXPECT_EQ(LoadGbm({10.0, 20.0}, w), nullptr);
}

TEST(TreePersistenceTest, FeatureBelowMinusOneIsRejected) {
  ByteWriter w;
  PutTree(&w, 1, 2, 2, /*leaf_feature=*/-7);
  EXPECT_FALSE(TreeLoads(w));
}

TEST(TreePersistenceTest, GbmTreeOfOtherLeafWidthIsRejected) {
  ByteWriter w;
  PutTree(&w, 1, 2, /*width=*/2);
  EXPECT_TRUE(TreeLoads(w));
  EXPECT_EQ(LoadGbm({10.0, 20.0, 30.0}, w), nullptr);
}

TEST(TreePersistenceTest, GbmTreeWithMoreLeavesThanAMaskIsRejected) {
  Matrix x, y;
  MakeData(200, 2, &x, &y, 31);
  TreeParams params;
  params.max_depth = 30;
  params.min_samples_leaf = 1;
  DecisionTree deep(params);
  deep.Fit(x, y);
  size_t leaves = 0;
  for (const DecisionTree::Node &node : deep.nodes()) leaves += node.feature < 0;
  ASSERT_GT(leaves, GradientBoosting::kMaxLeaves);
  ByteWriter w;
  deep.Save(&w);
  EXPECT_TRUE(TreeLoads(w));
  EXPECT_EQ(LoadGbm({0.0, 0.0}, w), nullptr);
}

}  // namespace
}  // namespace mb2
