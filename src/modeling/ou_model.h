#pragma once

/// \file ou_model.h
/// One behavior model per operating unit: trained on OU-runner data via the
/// Sec 6.4 procedure (80/20 split over candidate algorithms, winner retrained
/// on everything), predicting all nine normalized output labels.

#include <map>
#include <memory>
#include <vector>

#include "metrics/metrics_collector.h"
#include "ml/model_selection.h"
#include "modeling/operating_unit.h"

namespace mb2 {

class OuModel {
 public:
  explicit OuModel(OuType type) : type_(type) {}

  /// Trains from raw (feature, label) pairs. When `normalize` is on (the
  /// default, and MB2's contribution), labels are divided by the OU's
  /// complexity factor before fitting; Predict() undoes it. With a pool,
  /// the candidate algorithms fit in parallel (bit-identical results; see
  /// SelectAndTrain).
  void Train(const Matrix &x, const Matrix &y_raw,
             const std::vector<MlAlgorithm> &algorithms, bool normalize = true,
             uint64_t seed = 42, ThreadPool *pool = nullptr);

  Labels Predict(const FeatureVector &features) const;

  /// Batched Predict: one Regressor::PredictBatch over all feature vectors,
  /// then the same per-row copy/denormalize/clamp as Predict. Bit-identical
  /// to calling Predict on each vector.
  void PredictBatch(const std::vector<FeatureVector> &features,
                    std::vector<Labels> *out) const;

  OuType type() const { return type_; }
  bool trained() const { return model_ != nullptr; }
  MlAlgorithm best_algorithm() const { return best_algorithm_; }
  const std::map<MlAlgorithm, double> &test_errors() const { return test_errors_; }
  /// Exact size of the persisted OU-model: the bytes Save writes.
  uint64_t SerializedBytes() const;

  /// Persists type tag, normalization flag, and the fitted model.
  void Save(ByteWriter *writer) const;
  /// Restores a saved OU-model; returns null on a corrupt stream.
  static std::unique_ptr<OuModel> Load(ByteReader *reader);

  /// Test-set relative error of the selected algorithm.
  double best_test_error() const {
    auto it = test_errors_.find(best_algorithm_);
    return it == test_errors_.end() ? 0.0 : it->second;
  }

 private:
  Matrix NormalizeDataset(const Matrix &x, const Matrix &y_raw) const;

  OuType type_;
  bool normalize_ = true;
  std::unique_ptr<Regressor> model_;
  MlAlgorithm best_algorithm_ = MlAlgorithm::kLinear;
  std::map<MlAlgorithm, double> test_errors_;
};

/// Converts drained metrics records into per-OU (X, Y) training matrices.
struct OuDataset {
  Matrix x;
  Matrix y;
};
std::map<OuType, OuDataset> GroupRecordsByOu(const std::vector<OuRecord> &records);

}  // namespace mb2
