#pragma once

/// \file huber_regression.h
/// Huber-loss linear regression via iteratively reweighted least squares —
/// robust to the measurement outliers that short-running OUs produce.

#include "ml/linear_regression.h"

namespace mb2 {

class HuberRegression : public Regressor {
 public:
  explicit HuberRegression(double delta = 1.35, uint32_t iterations = 15)
      : delta_(delta), iterations_(iterations) {}

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kHuber; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;

 private:
  double delta_;
  uint32_t iterations_;
  Standardizer x_std_;
  Matrix weights_;  ///< (d+1) × k
};

}  // namespace mb2
