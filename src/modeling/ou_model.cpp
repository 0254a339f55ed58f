#include "modeling/ou_model.h"

#include "modeling/normalization.h"

namespace mb2 {

Matrix OuModel::NormalizeDataset(const Matrix &x, const Matrix &y_raw) const {
  Matrix y = y_raw;
  if (!normalize_) return y;
  for (size_t r = 0; r < y.rows(); r++) {
    Labels labels{};
    for (size_t j = 0; j < kNumLabels; j++) labels[j] = y.At(r, j);
    const FeatureVector features = x.Row(r);
    NormalizeLabels(type_, features, &labels);
    for (size_t j = 0; j < kNumLabels; j++) y.At(r, j) = labels[j];
  }
  return y;
}

void OuModel::Train(const Matrix &x, const Matrix &y_raw,
                    const std::vector<MlAlgorithm> &algorithms, bool normalize,
                    uint64_t seed, ThreadPool *pool) {
  normalize_ = normalize;
  const Matrix y = NormalizeDataset(x, y_raw);
  SelectionResult selection = SelectAndTrain(x, y, algorithms, seed, pool);
  best_algorithm_ = selection.best_algorithm;
  test_errors_ = selection.test_errors;
  model_ = std::move(selection.final_model);
}

Labels OuModel::Predict(const FeatureVector &features) const {
  MB2_ASSERT(model_ != nullptr, "predict before train");
  const std::vector<double> raw = model_->Predict(features);
  Labels labels{};
  for (size_t j = 0; j < kNumLabels && j < raw.size(); j++) {
    labels[j] = raw[j];
  }
  if (normalize_) DenormalizeLabels(type_, features, &labels);
  // Physical labels are non-negative.
  for (auto &v : labels) v = std::max(0.0, v);
  return labels;
}

void OuModel::PredictBatch(const std::vector<FeatureVector> &features,
                           std::vector<Labels> *out) const {
  MB2_ASSERT(model_ != nullptr, "predict before train");
  out->assign(features.size(), Labels{});
  if (features.empty()) return;
  Matrix x;
  x.Reserve(features.size(), features[0].size());
  for (const FeatureVector &f : features) x.AppendRow(f.data(), f.size());
  Matrix pred;
  model_->PredictBatch(x, &pred);
  for (size_t r = 0; r < features.size(); r++) {
    Labels &labels = (*out)[r];
    const double *raw = pred.RowPtr(r);
    for (size_t j = 0; j < kNumLabels && j < pred.cols(); j++) labels[j] = raw[j];
    if (normalize_) DenormalizeLabels(type_, features[r], &labels);
    for (auto &v : labels) v = std::max(0.0, v);
  }
}

std::map<OuType, OuDataset> GroupRecordsByOu(const std::vector<OuRecord> &records) {
  std::map<OuType, OuDataset> out;
  // Count per OU first so each dataset reserves its exact final size and the
  // append loop never reallocates.
  std::map<OuType, size_t> counts;
  for (const OuRecord &record : records) counts[record.ou]++;
  for (const OuRecord &record : records) {
    OuDataset &ds = out[record.ou];
    if (ds.x.rows() == 0) {
      const size_t n = counts[record.ou];
      ds.x.Reserve(n, record.features.size());
      ds.y.Reserve(n, record.labels.size());
    }
    ds.x.AppendRow(record.features.data(), record.features.size());
    ds.y.AppendRow(record.labels.data(), record.labels.size());
  }
  return out;
}



void OuModel::Save(ByteWriter *writer) const {
  writer->Put<uint8_t>(static_cast<uint8_t>(type_));
  writer->Put<uint8_t>(normalize_ ? 1 : 0);
  writer->Put<uint8_t>(static_cast<uint8_t>(best_algorithm_));
  writer->Put<uint8_t>(model_ != nullptr ? 1 : 0);
  if (model_ != nullptr) SaveRegressor(*model_, writer);
}

uint64_t OuModel::SerializedBytes() const {
  ByteWriter writer;
  Save(&writer);
  return writer.size();
}

std::unique_ptr<OuModel> OuModel::Load(ByteReader *reader) {
  const uint8_t type_tag = reader->Get<uint8_t>();
  if (!reader->ok() || type_tag >= kNumOuTypes) return nullptr;
  auto model = std::make_unique<OuModel>(static_cast<OuType>(type_tag));
  model->normalize_ = reader->Get<uint8_t>() != 0;
  model->best_algorithm_ = static_cast<MlAlgorithm>(reader->Get<uint8_t>());
  if (reader->Get<uint8_t>() != 0) {
    model->model_ = LoadRegressor(reader);
    if (model->model_ == nullptr) return nullptr;
  }
  return model;
}

}  // namespace mb2
