#pragma once

/// \file regressor.h
/// Common interface for MB2's seven regression algorithms (Sec 6.4). Every
/// model is multi-output: an OU-model predicts all nine labels jointly.

#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "ml/matrix.h"

namespace mb2 {

enum class MlAlgorithm : uint8_t {
  kLinear = 0,
  kHuber,
  kSvr,
  kKernel,
  kRandomForest,
  kGradientBoosting,
  kNeuralNetwork,
};

constexpr size_t kNumMlAlgorithms = 7;
const char *MlAlgorithmName(MlAlgorithm algo);

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on features X (n×d) and targets Y (n×k).
  virtual void Fit(const Matrix &x, const Matrix &y) = 0;

  /// Predicts the k-vector of targets for one feature row.
  virtual std::vector<double> Predict(const std::vector<double> &x) const = 0;

  /// Batched prediction: resizes *out to x.rows() × k and fills row r with
  /// Predict(x.Row(r)). Every implementation is required to be bit-identical
  /// to the row-at-a-time path (same summation order within each row) —
  /// batching changes throughput, never results. Handles 0-row batches.
  virtual void PredictBatch(const Matrix &x, Matrix *out) const = 0;

  virtual MlAlgorithm algorithm() const = 0;
  const char *Name() const { return MlAlgorithmName(algorithm()); }

  /// Exact size of the persisted model, i.e. the bytes SaveRegressor writes
  /// (Table 2's model-size column).
  uint64_t SerializedBytes() const;

  /// Persists the fitted parameters (algorithm tag written by
  /// SaveRegressor, not here).
  virtual void Save(ByteWriter *writer) const = 0;
  /// Restores parameters into a freshly constructed instance.
  virtual void LoadFrom(ByteReader *reader) = 0;
};

/// Writes the algorithm tag + parameters.
void SaveRegressor(const Regressor &model, ByteWriter *writer);
/// Reads the tag, constructs via CreateRegressor, restores parameters.
/// Returns null when the stream is corrupt.
std::unique_ptr<Regressor> LoadRegressor(ByteReader *reader);

// Shared helpers for model state.
void SaveMatrix(const Matrix &m, ByteWriter *writer);
Matrix LoadMatrix(ByteReader *reader);
void SaveStandardizer(const Standardizer &s, ByteWriter *writer);
Standardizer LoadStandardizer(ByteReader *reader);

/// Factory with MB2's default hyperparameters (Sec 8: random forest with 50
/// estimators, NN with 2×25 neurons, GBM defaults scaled to our data sizes).
std::unique_ptr<Regressor> CreateRegressor(MlAlgorithm algo, uint64_t seed = 42);

}  // namespace mb2
