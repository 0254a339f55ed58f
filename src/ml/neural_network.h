#pragma once

/// \file neural_network.h
/// Multilayer perceptron (2 hidden layers × 25 ReLU units — the paper's
/// configuration) trained with Adam on standardized inputs and outputs.

#include <vector>

#include "common/rng.h"
#include "ml/regressor.h"

namespace mb2 {

class NeuralNetwork : public Regressor {
 public:
  explicit NeuralNetwork(std::vector<size_t> hidden = {25, 25},
                         uint32_t epochs = 120, size_t batch_size = 32,
                         double learning_rate = 1e-3, uint64_t seed = 42)
      : hidden_(std::move(hidden)), epochs_(epochs), batch_size_(batch_size),
        learning_rate_(learning_rate), rng_(seed) {}

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kNeuralNetwork; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;


 private:
  struct Layer {
    size_t in = 0, out = 0;
    std::vector<double> w;   // out × in
    std::vector<double> b;   // out
    std::vector<double> wt;  // in × out transposed copy for the batched path
    // Adam state
    std::vector<double> mw, vw, mb, vb;
  };

  void Forward(const std::vector<double> &x,
               std::vector<std::vector<double>> *activations) const;
  /// Rebuilds each layer's `wt` from `w`; called after Fit and LoadFrom so
  /// PredictBatch can use the column-contiguous (vectorizable) GEMM kernel.
  void BuildBatchWeights();

  std::vector<size_t> hidden_;
  uint32_t epochs_;
  size_t batch_size_;
  double learning_rate_;
  Rng rng_;
  Standardizer x_std_, y_std_;
  std::vector<Layer> layers_;
};

}  // namespace mb2
