#pragma once

/// \file random_forest.h
/// Bagged ensemble of multi-output CART trees with per-node feature
/// subsampling — MB2's configuration uses 50 estimators (Sec 8).

#include <memory>

#include "ml/decision_tree.h"

namespace mb2 {

class RandomForest : public Regressor {
 public:
  explicit RandomForest(uint32_t num_trees = 50, TreeParams params = DefaultParams(),
                        uint64_t seed = 42)
      : num_trees_(num_trees), params_(params), rng_(seed) {}

  static TreeParams DefaultParams() {
    TreeParams p;
    p.max_depth = 16;
    p.min_samples_leaf = 2;
    p.feature_fraction = 0.6;
    return p;
  }

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kRandomForest; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;


 private:
  uint32_t num_trees_;
  TreeParams params_;
  Rng rng_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
};

}  // namespace mb2
