// Batched-inference tests: PredictBatch must be bit-identical to the
// row-at-a-time Predict path for every algorithm (fig05/fig06 accuracy must
// not move when serving switches to batches), flattened decision trees must
// round-trip through persistence (and the legacy pointer-node format is
// rejected), and the serving-layer OU-prediction cache must hit on repeats, respect its
// LRU bound, and drop entries when a model retrains.

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/serde.h"
#include "database.h"
#include "ml/decision_tree.h"
#include "ml/model_selection.h"
#include "modeling/model_bot.h"

namespace mb2 {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Mixed-curvature targets so trees, kernels, and networks all build
/// non-trivial structure.
void MakeData(size_t n, Matrix *x, Matrix *y, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; i++) {
    const double a = rng.Uniform(-4.0, 4.0);
    const double b = rng.Uniform(-4.0, 4.0);
    const double c = rng.Uniform(0.0, 8.0);
    x->AppendRow({a, b, c});
    y->AppendRow({3 * a - b + 0.5 * c + 7, a * b + c * c, -a + 0.1 * b * c});
  }
}

void ExpectBatchMatchesSingle(const Regressor &model, const Matrix &queries) {
  Matrix out;
  model.PredictBatch(queries, &out);
  ASSERT_EQ(out.rows(), queries.rows());
  for (size_t r = 0; r < queries.rows(); r++) {
    const std::vector<double> single = model.Predict(queries.Row(r));
    ASSERT_EQ(out.cols(), single.size()) << model.Name();
    for (size_t j = 0; j < single.size(); j++) {
      EXPECT_EQ(BitsOf(out.At(r, j)), BitsOf(single[j]))
          << model.Name() << " row " << r << " col " << j;
    }
  }
}

// --- Bit-identical batch vs single for all seven algorithms ----------------

class BatchVsSingle : public ::testing::TestWithParam<MlAlgorithm> {};

TEST_P(BatchVsSingle, BitIdenticalAcrossShapes) {
  Matrix x, y;
  MakeData(300, &x, &y, 11);
  auto model = CreateRegressor(GetParam(), /*seed=*/42);
  model->Fit(x, y);
  for (size_t n : {size_t{0}, size_t{1}, size_t{17}, size_t{256}}) {
    Matrix queries, unused;
    MakeData(n, &queries, &unused, 1000 + n);
    ExpectBatchMatchesSingle(*model, queries);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, BatchVsSingle,
                         ::testing::ValuesIn(AllAlgorithms()));

TEST(DecisionTreeBatchTest, BitIdenticalAndAccumulate) {
  Matrix x, y;
  MakeData(250, &x, &y, 31);
  TreeParams params;
  params.max_depth = 10;
  DecisionTree tree(params);
  tree.Fit(x, y);
  Matrix queries, unused;
  MakeData(64, &queries, &unused, 77);
  ExpectBatchMatchesSingle(tree, queries);

  // AccumulatePredictions(scale=1) over a zero matrix equals PredictBatch.
  Matrix direct, acc(queries.rows(), y.cols());
  tree.PredictBatch(queries, &direct);
  for (size_t r = 0; r < acc.rows(); r++) {
    for (size_t j = 0; j < acc.cols(); j++) acc.At(r, j) = 0.0;
  }
  tree.AccumulatePredictions(queries, 1.0, &acc);
  for (size_t r = 0; r < acc.rows(); r++) {
    for (size_t j = 0; j < acc.cols(); j++) {
      EXPECT_EQ(BitsOf(acc.At(r, j)), BitsOf(direct.At(r, j)));
    }
  }
}

// --- Flattened-tree persistence -------------------------------------------

TEST(TreePersistenceTest, FlatFormatRoundTrip) {
  Matrix x, y;
  MakeData(200, &x, &y, 41);
  DecisionTree tree;
  tree.Fit(x, y);
  ByteWriter writer;
  tree.Save(&writer);
  ByteReader reader(writer.bytes().data(), writer.size());
  DecisionTree loaded;
  loaded.LoadFrom(&reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.RemainingBytes(), 0);
  EXPECT_EQ(loaded.NumNodes(), tree.NumNodes());
  EXPECT_EQ(loaded.leaf_width(), tree.leaf_width());
  Matrix queries, unused;
  MakeData(32, &queries, &unused, 55);
  Matrix a, b;
  tree.PredictBatch(queries, &a);
  loaded.PredictBatch(queries, &b);
  for (size_t r = 0; r < a.rows(); r++) {
    for (size_t j = 0; j < a.cols(); j++) {
      EXPECT_EQ(BitsOf(a.At(r, j)), BitsOf(b.At(r, j)));
    }
  }
}

TEST(TreePersistenceTest, LegacyPointerFormatIsRejected) {
  // The pre-flattening format: [u64 count, no flag bit], then per node
  // [i32 feature][f64 threshold][i32 left][i32 right][leaf doubles]. Only
  // the flat format is read; a header without the flag bit is corrupt.
  // Tree: root splits feature 0 at 0.5; left leaf {1,2}, right leaf {3,4}.
  ByteWriter w;
  w.Put<uint64_t>(3);
  w.Put<int32_t>(0);  // root: split
  w.Put<double>(0.5);
  w.Put<int32_t>(1);
  w.Put<int32_t>(2);
  w.PutDoubles({});  // internal nodes carried empty leaves
  for (double first : {1.0, 3.0}) {
    w.Put<int32_t>(-1);  // leaf
    w.Put<double>(0.0);
    w.Put<int32_t>(-1);
    w.Put<int32_t>(-1);
    w.PutDoubles({first, first + 1.0});
  }
  ByteReader reader(w.bytes().data(), w.size());
  DecisionTree tree;
  tree.LoadFrom(&reader);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.corrupt());
}

// --- Serving-layer OU-prediction cache -------------------------------------

class OuCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    bot_ = std::make_unique<ModelBot>(&db_->catalog(), &db_->estimator(),
                                      &db_->settings());
    // Deterministic synthetic records for two OU types.
    std::vector<OuRecord> records;
    for (OuType type : {OuType::kSeqScan, OuType::kIdxScan}) {
      for (const FeatureVector &f : DistinctFeatures(type)) {
        for (int o = 0; o < 3; o++) {
          OuRecord r;
          r.ou = type;
          r.features = f;
          for (size_t j = 0; j < kNumLabels; j++) {
            double v = 1.0;
            for (double q : f) v += (1.0 + 0.2 * j) * q;
            r.labels[j] = v;
          }
          records.push_back(std::move(r));
        }
      }
    }
    bot_->TrainOuModels(records, {MlAlgorithm::kLinear}, /*normalize=*/false);
    bot_->ResetOuCacheStats();
  }

  static std::vector<FeatureVector> DistinctFeatures(OuType type) {
    const size_t d = GetOuDescriptor(type).feature_names.size();
    std::vector<FeatureVector> out;
    for (size_t i = 0; i < 8; i++) {
      FeatureVector f(d);
      for (size_t j = 0; j < d; j++) {
        f[j] = 1.0 + static_cast<double>((3 * i + 5 * j) % 16);
      }
      out.push_back(std::move(f));
    }
    return out;
  }

  std::vector<TranslatedOu> MakeOus() const {
    std::vector<TranslatedOu> ous;
    for (OuType type : {OuType::kSeqScan, OuType::kIdxScan}) {
      for (const FeatureVector &f : DistinctFeatures(type)) {
        ous.push_back({type, f});
      }
    }
    return ous;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ModelBot> bot_;
};

TEST_F(OuCacheTest, HitOnRepeatAndIdenticalResults) {
  const std::vector<TranslatedOu> ous = MakeOus();
  const std::vector<Labels> first = bot_->PredictOus(ous);
  const PredictionCacheStats after_first = bot_->ou_cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, ous.size());
  EXPECT_EQ(after_first.entries, ous.size());

  const std::vector<Labels> second = bot_->PredictOus(ous);
  const PredictionCacheStats after_second = bot_->ou_cache_stats();
  EXPECT_EQ(after_second.hits, ous.size());
  EXPECT_EQ(after_second.misses, ous.size());  // no new misses
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); i++) {
    for (size_t j = 0; j < kNumLabels; j++) {
      EXPECT_EQ(BitsOf(first[i][j]), BitsOf(second[i][j])) << i << "," << j;
    }
  }
  // Cache-served results equal direct model predictions.
  const OuModel *model = bot_->GetOuModel(OuType::kSeqScan);
  ASSERT_NE(model, nullptr);
  const Labels direct = model->Predict(ous[0].features);
  for (size_t j = 0; j < kNumLabels; j++) {
    EXPECT_EQ(BitsOf(second[0][j]), BitsOf(direct[j]));
  }
}

TEST_F(OuCacheTest, DuplicatesInOneCallAreDeduplicated) {
  std::vector<TranslatedOu> ous = MakeOus();
  const size_t distinct = ous.size();
  std::vector<TranslatedOu> repeated = ous;
  repeated.insert(repeated.end(), ous.begin(), ous.end());
  const std::vector<Labels> out = bot_->PredictOus(repeated);
  ASSERT_EQ(out.size(), repeated.size());
  // Duplicates inside one call share one batched prediction: miss counters
  // tick per lookup, but only `distinct` entries were ever computed/stored.
  EXPECT_EQ(bot_->ou_cache_stats().entries, distinct);
  for (size_t i = 0; i < distinct; i++) {
    for (size_t j = 0; j < kNumLabels; j++) {
      EXPECT_EQ(BitsOf(out[i][j]), BitsOf(out[i + distinct][j]));
    }
  }
}

TEST_F(OuCacheTest, RetrainInvalidatesOnlyThatType) {
  const std::vector<TranslatedOu> ous = MakeOus();
  bot_->PredictOus(ous);
  EXPECT_EQ(bot_->ou_cache_stats().entries, ous.size());

  std::vector<OuRecord> records;
  for (const FeatureVector &f : DistinctFeatures(OuType::kSeqScan)) {
    for (int o = 0; o < 3; o++) {
      OuRecord r;
      r.ou = OuType::kSeqScan;
      r.features = f;
      for (size_t j = 0; j < kNumLabels; j++) r.labels[j] = 123.0 + f[0];
      records.push_back(std::move(r));
    }
  }
  bot_->RetrainOu(OuType::kSeqScan, records, {MlAlgorithm::kLinear},
                  /*normalize=*/false);
  // kSeqScan entries dropped; kIdxScan entries survive.
  EXPECT_EQ(bot_->ou_cache_stats().entries, ous.size() / 2);

  // Post-retrain predictions reflect the new model, not stale cache.
  const std::vector<Labels> fresh = bot_->PredictOus(ous);
  const OuModel *model = bot_->GetOuModel(OuType::kSeqScan);
  ASSERT_NE(model, nullptr);
  const Labels direct = model->Predict(ous[0].features);
  for (size_t j = 0; j < kNumLabels; j++) {
    EXPECT_EQ(BitsOf(fresh[0][j]), BitsOf(direct[j]));
  }
}

TEST_F(OuCacheTest, LruBoundRespected) {
  ASSERT_TRUE(db_->settings().SetDouble("ou_cache_capacity", 4).ok());
  const std::vector<TranslatedOu> ous = MakeOus();  // 8 distinct per type
  bot_->PredictOus(ous);
  const PredictionCacheStats stats = bot_->ou_cache_stats();
  // Per-type LRU bound: at most 4 entries per OU type survive.
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST_F(OuCacheTest, ZeroCapacityDisablesCaching) {
  ASSERT_TRUE(db_->settings().SetDouble("ou_cache_capacity", 0).ok());
  const std::vector<TranslatedOu> ous = MakeOus();
  bot_->PredictOus(ous);
  bot_->PredictOus(ous);
  const PredictionCacheStats stats = bot_->ou_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

}  // namespace
}  // namespace mb2
