#pragma once

/// \file linear_regression.h
/// Multi-output ridge (L2-regularized least squares) regression, solved via
/// the normal equations. The simplest of MB2's model families; competitive
/// for near-linear OUs (arithmetic, log serialization).

#include "ml/regressor.h"

namespace mb2 {

class LinearRegression : public Regressor {
 public:
  explicit LinearRegression(double l2 = 1e-6) : l2_(l2) {}

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kLinear; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;

  const Matrix &weights() const { return weights_; }

 protected:
  double l2_;
  Standardizer x_std_;
  Matrix weights_;  ///< (d+1) × k, last row is the bias
};

}  // namespace mb2
