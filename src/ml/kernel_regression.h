#pragma once

/// \file kernel_regression.h
/// Nadaraya-Watson kernel regression with a Gaussian kernel over
/// standardized features. Non-parametric: keeps a (subsampled) copy of the
/// training set and predicts the kernel-weighted mean of neighbors.

#include "common/rng.h"
#include "ml/regressor.h"

namespace mb2 {

class KernelRegression : public Regressor {
 public:
  explicit KernelRegression(double bandwidth = 0.5, size_t max_points = 2000,
                            uint64_t seed = 42)
      : bandwidth_(bandwidth), max_points_(max_points), rng_(seed) {}

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kKernel; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;

 private:
  /// Rebuilds xt_ (the d × ns column-major copy of x_); called after Fit and
  /// LoadFrom so PredictBatch's distance/weight loops vectorize across
  /// supports.
  void BuildSupportColumns();

  double bandwidth_;
  size_t max_points_;
  Rng rng_;
  Standardizer x_std_;
  Matrix x_, y_;            ///< retained (standardized) training points
  std::vector<double> xt_;  ///< x_ transposed: feature c of support r at [c*ns+r]
};

}  // namespace mb2
