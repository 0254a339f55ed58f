#pragma once

/// \file gradient_boosting.h
/// Gradient boosting machine with multi-output regression trees fit to the
/// residual matrix (squared loss, so residuals ARE the negative gradients).

#include <memory>

#include "ml/decision_tree.h"

namespace mb2 {

class GradientBoosting : public Regressor {
 public:
  explicit GradientBoosting(uint32_t rounds = 80, double learning_rate = 0.1,
                            TreeParams params = DefaultParams(), uint64_t seed = 42)
      : rounds_(rounds), learning_rate_(learning_rate), params_(params), rng_(seed) {}

  static TreeParams DefaultParams() {
    TreeParams p;
    p.max_depth = 5;
    p.min_samples_leaf = 8;
    return p;
  }

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kGradientBoosting; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;


 private:
  uint32_t rounds_;
  double learning_rate_;
  TreeParams params_;
  Rng rng_;
  std::vector<double> base_;  ///< initial prediction (target means)
  std::vector<std::unique_ptr<DecisionTree>> trees_;
};

}  // namespace mb2
