#pragma once

/// \file model_bot.h
/// ModelBot2 (MB2): the end-to-end behavior-modeling framework. Owns the
/// OU-models and the interference model, trains them from runner-generated
/// data, and answers the planning system's questions: how long will an
/// action take, what resources will it consume, and how will the forecasted
/// workload perform while (and after) it runs.

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "modeling/interference_model.h"
#include "modeling/ou_model.h"
#include "modeling/ou_translator.h"
#include "modeling/prediction_cache.h"
#include "selfdriving/action.h"
#include "workload/forecast.h"

namespace mb2 {

/// Per-query behavior prediction.
struct QueryPrediction {
  std::vector<TranslatedOu> ous;
  std::vector<Labels> per_ou;  ///< parallel to `ous`
  Labels total{};              ///< element-wise sum
  /// True when at least one OU had no usable model and was served from the
  /// degraded fallback (trimmed-mean training labels, or zeros if the OU was
  /// never observed). Planners should treat degraded predictions as
  /// low-confidence, never as silent ground truth.
  bool degraded = false;
  uint32_t degraded_ous = 0;  ///< how many OUs fell back
  double ElapsedUs() const { return total[kLabelElapsedUs]; }
};

/// Whole-interval prediction under concurrency (+ optional actions).
struct IntervalPrediction {
  /// Interference-adjusted average latency per query template.
  std::map<std::string, double> query_elapsed_us;
  /// Average over templates weighted by arrival rate.
  double avg_query_elapsed_us = 0.0;
  /// Predicted elapsed time of each action (index builds), adjusted.
  double action_elapsed_us = 0.0;
  Labels action_labels{};
  /// Fraction of total CPU the interval's work consumes (0..num_threads).
  double cpu_utilization = 0.0;
  /// Fraction of total CPU consumed by the actions alone.
  double action_cpu_utilization = 0.0;
  /// Element-wise totals of all adjusted OU labels in the interval.
  Labels interval_totals{};
  /// Any constituent prediction was served degraded (missing OU model).
  bool degraded = false;
};

struct TrainingReport {
  double train_seconds = 0.0;
  uint64_t samples = 0;
  uint64_t model_bytes = 0;
  std::map<OuType, double> per_ou_test_error;
  std::map<OuType, MlAlgorithm> per_ou_algorithm;
};

/// Result of one drift check: the rolling prediction error of every OU that
/// has production samples, and the OUs whose error crossed the threshold.
struct DriftReport {
  std::map<OuType, double> rolling_error;
  std::map<OuType, uint64_t> window_samples;
  std::vector<OuType> drifted;
  size_t processed = 0;  ///< samples scored by this check
};

class ModelBot {
 public:
  ModelBot(Catalog *catalog, CardinalityEstimator *estimator,
           SettingsManager *settings)
      : translator_(catalog, estimator, settings), settings_(settings) {}
  MB2_DISALLOW_COPY_AND_MOVE(ModelBot);

  // --- Training -----------------------------------------------------------

  /// Trains one OU-model per OU present in `records` (Sec 6.4 procedure).
  /// With a pool, each OU fits on its own worker (the per-OU selection then
  /// runs serially inside the task — nesting on one pool would deadlock its
  /// WaitAll); every OU trains from the same fixed seed, so the resulting
  /// models are bit-identical to a serial run.
  TrainingReport TrainOuModels(const std::vector<OuRecord> &records,
                               const std::vector<MlAlgorithm> &algorithms,
                               bool normalize = true, uint64_t seed = 42,
                               ThreadPool *pool = nullptr);

  /// Retrains a single OU (software-update adaptation, Sec 7).
  void RetrainOu(OuType type, const std::vector<OuRecord> &records,
                 const std::vector<MlAlgorithm> &algorithms,
                 bool normalize = true, uint64_t seed = 42);

  /// Trains the interference model from concurrent-runner records.
  TrainingReport TrainInterferenceModel(const std::vector<OuRecord> &records,
                                        const std::vector<MlAlgorithm> &algorithms,
                                        uint64_t seed = 42);

  // --- Inference ----------------------------------------------------------

  /// Isolated-execution prediction for one query plan (estimates must be
  /// filled by the CardinalityEstimator; the plan must be finalized).
  QueryPrediction PredictQuery(const PlanNode &plan,
                               double exec_mode_override = -1.0) const;

  /// Prediction of an action's isolated cost (e.g. index-build time).
  QueryPrediction PredictAction(const Action &action) const;

  /// Full interval prediction: queries + maintenance + transactions +
  /// actions, adjusted for interference among the interval's OUs.
  IntervalPrediction PredictInterval(const WorkloadForecast &forecast,
                                     const std::vector<Action> &actions = {}) const;

  /// Batched serving core used by every Predict* entry point: groups the
  /// translated OUs by type, serves repeats from the memoizing OU-prediction
  /// cache (bounded per type by the `ou_cache_capacity` knob), deduplicates
  /// the remaining feature vectors, and issues ONE Regressor::PredictBatch
  /// per OU model. Bit-identical to predicting each OU individually.
  /// Returns labels parallel to `ous`; `degraded_ous` (optional) is
  /// incremented once per fallback-served OU. With a pool, OU types fan out
  /// across workers.
  std::vector<Labels> PredictOus(const std::vector<TranslatedOu> &ous,
                                 uint32_t *degraded_ous = nullptr,
                                 ThreadPool *pool = nullptr) const;

  // --- Introspection ------------------------------------------------------

  /// Persists every trained OU-model, the degraded-fallback table, and the
  /// interference model to `<dir>/mb2_models.bin` (offline train ->
  /// production deploy, Sec 3). Crash-atomic: the payload is written to a
  /// temp file, checksummed (CRC32 footer), and renamed into place, so a
  /// crash mid-save never clobbers the previously deployed model set.
  Status SaveModels(const std::string &dir) const;
  /// Restores a previously saved model set, replacing any trained models.
  /// Rejects corrupt or truncated files (checksum + structural checks)
  /// instead of loading garbage.
  Status LoadModels(const std::string &dir);

  const OuModel *GetOuModel(OuType type) const;
  const InterferenceModel &interference_model() const { return interference_; }
  OuTranslator &translator() { return translator_; }
  const OuTranslator &translator() const { return translator_; }
  uint64_t TotalOuModelBytes() const;

  /// Degradation policy: per-OU interference-free 20% trimmed mean of the
  /// training labels, recorded at train time and persisted with the models.
  /// Served (flagged `degraded`) when an OU-model is missing or failed to
  /// load, instead of crashing or answering zeros.
  const std::map<OuType, Labels> &fallback_labels() const {
    return fallback_labels_;
  }

  /// Hit/miss/eviction counters of the serving-layer OU-prediction cache.
  PredictionCacheStats ou_cache_stats() const { return ou_cache_.stats(); }
  void ResetOuCacheStats() const { ou_cache_.ResetStats(); }

  // --- Drift monitoring (Sec 7 closed loop) -------------------------------

  /// Drains the DriftMonitor's production-sampled OU observations, scores
  /// each against the deployed OU-model (relative error on the elapsed
  /// label), feeds the rolling per-OU windows + drift gauges, and reports
  /// which OUs crossed the drift threshold.
  DriftReport CheckDrift() const;

  /// Closes the loop: for every drifted OU, fetches fresh training records
  /// from `provider` (e.g. a targeted OU-runner re-run) and retrains just
  /// that OU — the Sec 7 adaptation path, now triggered by live drift
  /// instead of an operator. Resets each retrained OU's drift window.
  /// Returns the number of OUs retrained.
  size_t RetrainDrifted(
      const DriftReport &report,
      const std::function<std::vector<OuRecord>(OuType)> &provider,
      const std::vector<MlAlgorithm> &algorithms, bool normalize = true,
      uint64_t seed = 42);

  /// Publishes serving-layer gauges (OU-cache hits/misses/evictions/entries
  /// and hit rate) to the global MetricsRegistry for the next dump.
  void ExportObsMetrics() const;

 private:
  /// Prices translated OUs: per-OU labels and their sum.
  QueryPrediction PredictTranslated(std::vector<TranslatedOu> ous) const;
  void UpdateFallbackLabels(OuType type, const Matrix &y_raw);
  /// Map lookup with models_mutex_ already held (shared or unique). The
  /// public GetOuModel takes the lock itself; internal serving paths hold
  /// one shared lock across a whole batch instead of re-locking per OU.
  const OuModel *GetOuModelUnlocked(OuType type) const;

  OuTranslator translator_;
  SettingsManager *settings_;
  /// Guards ou_models_ and fallback_labels_ against concurrent retraining:
  /// serving (PredictOus, CheckDrift) holds it shared for the duration of a
  /// batch — a model must not be replaced mid-prediction — while RetrainOu /
  /// RetrainDrifted / LoadModels install replacements under the exclusive
  /// side. Training itself (the slow part) runs outside the lock; only the
  /// pointer swap is exclusive. Never taken recursively: public entry points
  /// lock once and call *Unlocked internals.
  mutable std::shared_mutex models_mutex_;
  std::map<OuType, std::unique_ptr<OuModel>> ou_models_;
  std::map<OuType, Labels> fallback_labels_;
  InterferenceModel interference_;
  /// Memoizes (OU type, feature vector) -> labels across Predict* calls.
  /// Mutable: serving is logically const but updates recency and counters.
  /// Invalidated whenever a model changes (train, retrain, load).
  mutable PredictionCache ou_cache_;
};

}  // namespace mb2
