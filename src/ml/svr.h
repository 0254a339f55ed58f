#pragma once

/// \file svr.h
/// Linear support-vector regression (epsilon-insensitive loss) trained with
/// averaged stochastic subgradient descent, one output at a time. Targets
/// are standardized internally so epsilon is scale-free.

#include "common/rng.h"
#include "ml/regressor.h"

namespace mb2 {

class SupportVectorRegression : public Regressor {
 public:
  explicit SupportVectorRegression(double epsilon = 0.05, double l2 = 1e-4,
                                   uint32_t epochs = 40, uint64_t seed = 42)
      : epsilon_(epsilon), l2_(l2), epochs_(epochs), rng_(seed) {}

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kSvr; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;

 private:
  double epsilon_, l2_;
  uint32_t epochs_;
  Rng rng_;
  Standardizer x_std_, y_std_;
  Matrix weights_;  ///< (d+1) × k
};

}  // namespace mb2
