#pragma once

/// \file interference_model.h
/// The shared concurrency-interference model (Sec 5). One model serves all
/// OUs: its inputs are the target OU's predicted labels plus summary
/// statistics (per-thread sums and the across-thread variance) of the
/// OU-model predictions for everything forecast to run in the same window,
/// all normalized by the target's predicted elapsed time. Its outputs are
/// the element-wise ratios actual/predicted (always >= 1: OUs run fastest
/// in isolation).

#include <map>
#include <memory>
#include <vector>

#include "metrics/metrics_collector.h"
#include "ml/model_selection.h"
#include "modeling/ou_model.h"

namespace mb2 {

class InterferenceModel {
 public:
  /// target labels (9) + across-thread {sum, variance} (18) + the number of
  /// concurrent streams (the forecast's concurrency information, Sec 5.1).
  static constexpr size_t kNumFeatures = 3 * kNumLabels + 1;

  /// Training window the summaries are computed over. Summaries at inference
  /// must be scaled to the same window (the model is otherwise agnostic to
  /// interval length — Sec 5.2).
  static constexpr double kWindowUs = 1e6;

  /// Builds the normalized feature vector.
  static FeatureVector MakeFeatures(const Labels &target_predicted,
                                    const std::vector<Labels> &per_thread_totals);

  void Train(const Matrix &x, const Matrix &y,
             const std::vector<MlAlgorithm> &algorithms, uint64_t seed = 42);

  /// Predicted adjustment ratios (clamped to >= 1).
  Labels AdjustmentRatios(const Labels &target_predicted,
                          const std::vector<Labels> &per_thread_totals) const;

  /// Batched variant: ratios for many targets sharing the same per-thread
  /// totals, served by one Regressor::PredictBatch. Element-identical to
  /// calling AdjustmentRatios once per target.
  std::vector<Labels> AdjustmentRatiosBatch(
      const std::vector<Labels> &targets,
      const std::vector<Labels> &per_thread_totals) const;

  /// Persistence (used by ModelBot::SaveModels / LoadModels).
  void Save(ByteWriter *writer) const;
  void LoadFrom(ByteReader *reader);

  bool trained() const { return model_ != nullptr; }
  MlAlgorithm best_algorithm() const { return best_algorithm_; }
  const std::map<MlAlgorithm, double> &test_errors() const { return test_errors_; }
  /// Exact size of the persisted model: the bytes Save writes.
  uint64_t SerializedBytes() const;

 private:
  std::unique_ptr<Regressor> model_;
  MlAlgorithm best_algorithm_ = MlAlgorithm::kNeuralNetwork;
  std::map<MlAlgorithm, double> test_errors_;
};

struct InterferenceDataset {
  Matrix x;
  Matrix y;
};

/// Converts concurrent-runner records into interference training data:
/// records are bucketed into kWindowUs windows by completion time and
/// thread; each record becomes one sample whose target prediction comes from
/// the (already trained) OU-models and whose label is the observed ratio.
InterferenceDataset BuildInterferenceDataset(
    const std::vector<OuRecord> &records,
    const std::map<OuType, std::unique_ptr<OuModel>> &ou_models);

}  // namespace mb2
