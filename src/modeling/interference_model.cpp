#include "modeling/interference_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace mb2 {

FeatureVector InterferenceModel::MakeFeatures(
    const Labels &target_predicted, const std::vector<Labels> &per_thread_totals) {
  const double norm = std::max(1.0, target_predicted[kLabelElapsedUs]);
  FeatureVector out;
  out.reserve(kNumFeatures);
  for (size_t j = 0; j < kNumLabels; j++) {
    out.push_back(target_predicted[j] / norm);
  }
  const double t = std::max<size_t>(1, per_thread_totals.size());
  for (size_t j = 0; j < kNumLabels; j++) {
    double sum = 0.0;
    for (const auto &labels : per_thread_totals) sum += labels[j];
    const double mean = sum / t;
    double var = 0.0;
    for (const auto &labels : per_thread_totals) {
      var += (labels[j] - mean) * (labels[j] - mean);
    }
    var /= t;
    out.push_back(sum / norm);
    out.push_back(var / std::max(1.0, norm * norm));
  }
  out.push_back(static_cast<double>(per_thread_totals.size()));
  return out;
}

void InterferenceModel::Train(const Matrix &x, const Matrix &y,
                              const std::vector<MlAlgorithm> &algorithms,
                              uint64_t seed) {
  // Same 80/20 procedure as the OU-models, with one deployment-minded
  // twist: when the neural network is competitive (within 10% of the best
  // test error) it wins the tie. The interference model ships as ONE model
  // for the whole DBMS — the paper found the NN best here (its capacity to
  // consume the summary statistics, Sec 8.4) at a ~66 KB footprint, whereas
  // a near-tied forest of deep trees over the concurrent-runner dataset is
  // orders of magnitude larger for no accuracy gain.
  const TrainTestSplit split = SplitData(x, y, 0.2, seed);
  double best_error = 1e300;
  MlAlgorithm best_algo = MlAlgorithm::kNeuralNetwork;
  bool nn_tried = false;
  for (MlAlgorithm algo : algorithms) {
    auto model = CreateRegressor(algo, seed);
    model->Fit(split.x_train, split.y_train);
    const double err = AvgRelativeError(*model, split.x_test, split.y_test);
    test_errors_[algo] = err;
    if (err < best_error) {
      best_error = err;
      best_algo = algo;
    }
    nn_tried |= algo == MlAlgorithm::kNeuralNetwork;
  }
  best_algorithm_ = best_algo;
  if (nn_tried &&
      test_errors_[MlAlgorithm::kNeuralNetwork] <= best_error * 1.10) {
    best_algorithm_ = MlAlgorithm::kNeuralNetwork;
  }
  model_ = CreateRegressor(best_algorithm_, seed);
  model_->Fit(x, y);
}

Labels InterferenceModel::AdjustmentRatios(
    const Labels &target_predicted,
    const std::vector<Labels> &per_thread_totals) const {
  Labels ratios;
  ratios.fill(1.0);
  if (model_ == nullptr) return ratios;
  const FeatureVector features = MakeFeatures(target_predicted, per_thread_totals);
  const std::vector<double> raw = model_->Predict(features);
  for (size_t j = 0; j < kNumLabels && j < raw.size(); j++) {
    ratios[j] = std::max(1.0, raw[j]);
  }
  return ratios;
}

std::vector<Labels> InterferenceModel::AdjustmentRatiosBatch(
    const std::vector<Labels> &targets,
    const std::vector<Labels> &per_thread_totals) const {
  std::vector<Labels> out(targets.size());
  for (auto &ratios : out) ratios.fill(1.0);
  if (model_ == nullptr || targets.empty()) return out;
  Matrix x;
  x.Reserve(targets.size(), kNumFeatures);
  for (const Labels &target : targets) {
    const FeatureVector features = MakeFeatures(target, per_thread_totals);
    x.AppendRow(features.data(), features.size());
  }
  Matrix pred;
  model_->PredictBatch(x, &pred);
  for (size_t i = 0; i < targets.size(); i++) {
    const double *raw = pred.RowPtr(i);
    for (size_t j = 0; j < kNumLabels && j < pred.cols(); j++) {
      out[i][j] = std::max(1.0, raw[j]);
    }
  }
  return out;
}

InterferenceDataset BuildInterferenceDataset(
    const std::vector<OuRecord> &records,
    const std::map<OuType, std::unique_ptr<OuModel>> &ou_models) {
  InterferenceDataset out;

  // Bucket records by time window, tracking per-thread predicted totals.
  struct Window {
    std::unordered_map<uint64_t, Labels> thread_totals;
    std::vector<std::pair<size_t, Labels>> samples;  // record idx, prediction
  };
  std::map<int64_t, Window> windows;

  for (size_t i = 0; i < records.size(); i++) {
    const OuRecord &r = records[i];
    auto it = ou_models.find(r.ou);
    if (it == ou_models.end() || !it->second->trained()) continue;
    const Labels predicted = it->second->Predict(r.features);
    const int64_t w = static_cast<int64_t>(
        static_cast<double>(r.end_time_us) / InterferenceModel::kWindowUs);
    Window &window = windows[w];
    auto [tit, inserted] = window.thread_totals.try_emplace(r.thread_id);
    if (inserted) tit->second.fill(0.0);
    for (size_t j = 0; j < kNumLabels; j++) tit->second[j] += predicted[j];
    window.samples.emplace_back(i, predicted);
  }

  for (auto &[w, window] : windows) {
    std::vector<Labels> per_thread;
    per_thread.reserve(window.thread_totals.size());
    for (auto &[tid, totals] : window.thread_totals) per_thread.push_back(totals);

    for (auto &[idx, predicted] : window.samples) {
      const OuRecord &r = records[idx];
      // Skip degenerate samples the ratio label is meaningless for.
      if (predicted[kLabelElapsedUs] < 1e-3) continue;
      FeatureVector x = InterferenceModel::MakeFeatures(predicted, per_thread);
      std::vector<double> y(kNumLabels, 1.0);
      for (size_t j = 0; j < kNumLabels; j++) {
        if (predicted[j] < 1e-9) {
          y[j] = 1.0;
        } else {
          y[j] = std::max(1.0, r.labels[j] / predicted[j]);
        }
      }
      out.x.AppendRow(x);
      out.y.AppendRow(y);
    }
  }
  return out;
}



void InterferenceModel::Save(ByteWriter *writer) const {
  writer->Put<uint8_t>(static_cast<uint8_t>(best_algorithm_));
  writer->Put<uint8_t>(model_ != nullptr ? 1 : 0);
  if (model_ != nullptr) SaveRegressor(*model_, writer);
}

uint64_t InterferenceModel::SerializedBytes() const {
  ByteWriter writer;
  Save(&writer);
  return writer.size();
}

void InterferenceModel::LoadFrom(ByteReader *reader) {
  best_algorithm_ = static_cast<MlAlgorithm>(reader->Get<uint8_t>());
  if (reader->Get<uint8_t>() != 0) model_ = LoadRegressor(reader);
}

}  // namespace mb2
