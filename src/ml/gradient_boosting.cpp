#include "ml/gradient_boosting.h"

namespace mb2 {

void GradientBoosting::Fit(const Matrix &x, const Matrix &y) {
  trees_.clear();
  const size_t n = x.rows(), k = y.cols();
  base_.assign(k, 0.0);
  if (n == 0) return;
  for (size_t r = 0; r < n; r++) {
    for (size_t j = 0; j < k; j++) base_[j] += y.At(r, j);
  }
  for (auto &b : base_) b /= static_cast<double>(n);

  Matrix residual(n, k);
  for (size_t r = 0; r < n; r++) {
    for (size_t j = 0; j < k; j++) residual.At(r, j) = y.At(r, j) - base_[j];
  }

  for (uint32_t round = 0; round < rounds_; round++) {
    auto tree = std::make_unique<DecisionTree>(params_, rng_.Next());
    tree->Fit(x, residual);
    // r -= lr*p and r += (-lr)*p are the same IEEE operation, so the batched
    // accumulate reproduces the historical residuals bit-for-bit.
    tree->AccumulatePredictions(x, -learning_rate_, &residual);
    trees_.push_back(std::move(tree));
  }
}

std::vector<double> GradientBoosting::Predict(const std::vector<double> &x) const {
  std::vector<double> out = base_;
  for (const auto &tree : trees_) {
    const std::vector<double> p = tree->Predict(x);
    for (size_t j = 0; j < out.size(); j++) out[j] += learning_rate_ * p[j];
  }
  return out;
}

void GradientBoosting::PredictBatch(const Matrix &x, Matrix *out) const {
  const size_t n = x.rows(), k = base_.size();
  out->Resize(n, k);
  for (size_t r = 0; r < n; r++) {
    double *row = out->RowPtr(r);
    for (size_t j = 0; j < k; j++) row[j] = base_[j];
  }
  if (n == 0) return;
  for (const auto &tree : trees_) {
    tree->AccumulatePredictions(x, learning_rate_, out);
  }
}

}  // namespace mb2
