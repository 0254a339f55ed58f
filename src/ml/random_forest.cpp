#include "ml/random_forest.h"

namespace mb2 {

void RandomForest::Fit(const Matrix &x, const Matrix &y) {
  trees_.clear();
  const size_t n = x.rows();
  for (uint32_t t = 0; t < num_trees_; t++) {
    auto tree = std::make_unique<DecisionTree>(params_, rng_.Next());
    std::vector<size_t> bootstrap(n);
    for (size_t i = 0; i < n; i++) {
      bootstrap[i] = static_cast<size_t>(rng_.Uniform(int64_t{0}, static_cast<int64_t>(n) - 1));
    }
    tree->FitRows(x, y, bootstrap);
    trees_.push_back(std::move(tree));
  }
}

std::vector<double> RandomForest::Predict(const std::vector<double> &x) const {
  MB2_ASSERT(!trees_.empty(), "predict before fit");
  std::vector<double> out = trees_[0]->Predict(x);
  for (size_t t = 1; t < trees_.size(); t++) {
    const std::vector<double> p = trees_[t]->Predict(x);
    for (size_t j = 0; j < out.size(); j++) out[j] += p[j];
  }
  for (auto &v : out) v /= static_cast<double>(trees_.size());
  return out;
}

void RandomForest::PredictBatch(const Matrix &x, Matrix *out) const {
  MB2_ASSERT(!trees_.empty(), "predict before fit");
  // Tree 0 fills the buffer, the rest accumulate into it — the same
  // per-element summation order as the single-row path.
  trees_[0]->PredictBatch(x, out);
  for (size_t t = 1; t < trees_.size(); t++) {
    trees_[t]->AccumulatePredictions(x, 1.0, out);
  }
  const size_t n = out->rows(), k = out->cols();
  const double inv = static_cast<double>(trees_.size());
  for (size_t r = 0; r < n; r++) {
    double *row = out->RowPtr(r);
    for (size_t j = 0; j < k; j++) row[j] /= inv;
  }
}

}  // namespace mb2
