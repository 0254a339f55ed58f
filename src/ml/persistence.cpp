// Model persistence: tagged binary save/load for every regressor family.
// Format: [u8 algorithm][class-specific payload]. Shared helpers serialize
// matrices and standardizers.

#include "ml/gradient_boosting.h"
#include "ml/huber_regression.h"
#include "ml/kernel_regression.h"
#include "ml/linear_regression.h"
#include "ml/neural_network.h"
#include "ml/random_forest.h"
#include "ml/regressor.h"
#include "ml/svr.h"

namespace mb2 {

void SaveMatrix(const Matrix &m, ByteWriter *writer) {
  writer->Put<uint64_t>(m.rows());
  writer->Put<uint64_t>(m.cols());
  writer->PutDoubles(m.data());
}

Matrix LoadMatrix(ByteReader *reader) {
  const uint64_t rows = reader->Get<uint64_t>();
  const uint64_t cols = reader->Get<uint64_t>();
  const std::vector<double> data = reader->GetDoubles();
  // A payload whose element count disagrees with the dimensions is corrupt;
  // returning a zero matrix here would silently poison every prediction.
  if (!reader->ok() || data.size() != rows * cols) {
    reader->MarkCorrupt();
    return Matrix();
  }
  Matrix m(rows, cols);
  for (uint64_t r = 0; r < rows; r++) {
    for (uint64_t c = 0; c < cols; c++) m.At(r, c) = data[r * cols + c];
  }
  return m;
}

void SaveStandardizer(const Standardizer &s, ByteWriter *writer) {
  writer->PutDoubles(s.mean());
  writer->PutDoubles(s.stddev());
}

Standardizer LoadStandardizer(ByteReader *reader) {
  Standardizer s;
  std::vector<double> mean = reader->GetDoubles();
  std::vector<double> stddev = reader->GetDoubles();
  if (!reader->ok() || mean.size() != stddev.size()) {
    reader->MarkCorrupt();
    return s;
  }
  s.SetState(std::move(mean), std::move(stddev));
  return s;
}

void SaveRegressor(const Regressor &model, ByteWriter *writer) {
  writer->Put<uint8_t>(static_cast<uint8_t>(model.algorithm()));
  model.Save(writer);
}

uint64_t Regressor::SerializedBytes() const {
  ByteWriter writer;
  SaveRegressor(*this, &writer);
  return writer.size();
}

std::unique_ptr<Regressor> LoadRegressor(ByteReader *reader) {
  const uint8_t tag = reader->Get<uint8_t>();
  if (!reader->ok() || tag >= kNumMlAlgorithms) return nullptr;
  auto model = CreateRegressor(static_cast<MlAlgorithm>(tag));
  model->LoadFrom(reader);
  if (!reader->ok()) return nullptr;
  return model;
}

// --- Linear / Huber ----------------------------------------------------------

void LinearRegression::Save(ByteWriter *writer) const {
  SaveStandardizer(x_std_, writer);
  SaveMatrix(weights_, writer);
}

void LinearRegression::LoadFrom(ByteReader *reader) {
  x_std_ = LoadStandardizer(reader);
  weights_ = LoadMatrix(reader);
}

void HuberRegression::Save(ByteWriter *writer) const {
  SaveStandardizer(x_std_, writer);
  SaveMatrix(weights_, writer);
}

void HuberRegression::LoadFrom(ByteReader *reader) {
  x_std_ = LoadStandardizer(reader);
  weights_ = LoadMatrix(reader);
}

// --- SVR ----------------------------------------------------------------------

void SupportVectorRegression::Save(ByteWriter *writer) const {
  SaveStandardizer(x_std_, writer);
  SaveStandardizer(y_std_, writer);
  SaveMatrix(weights_, writer);
}

void SupportVectorRegression::LoadFrom(ByteReader *reader) {
  x_std_ = LoadStandardizer(reader);
  y_std_ = LoadStandardizer(reader);
  weights_ = LoadMatrix(reader);
}

// --- Kernel ---------------------------------------------------------------------

void KernelRegression::Save(ByteWriter *writer) const {
  writer->Put<double>(bandwidth_);
  SaveStandardizer(x_std_, writer);
  SaveMatrix(x_, writer);
  SaveMatrix(y_, writer);
}

void KernelRegression::LoadFrom(ByteReader *reader) {
  bandwidth_ = reader->Get<double>();
  x_std_ = LoadStandardizer(reader);
  x_ = LoadMatrix(reader);
  y_ = LoadMatrix(reader);
  BuildSupportColumns();
}

// --- Decision tree ----------------------------------------------------------------

namespace {
// High bit on the node count marks the flattened-leaf format, the only one
// written; the bit stays in the layout so files keep their bytes.
constexpr uint64_t kFlatTreeFormatFlag = 1ull << 63;
// feature + threshold + left + right + leaf_offset.
constexpr int64_t kTreeNodeBytes = 4 + 8 + 4 + 4 + 4;
}  // namespace

void DecisionTree::Save(ByteWriter *writer) const {
  writer->Put<uint64_t>(nodes_.size() | kFlatTreeFormatFlag);
  for (const Node &node : nodes_) {
    writer->Put<int32_t>(node.feature);
    writer->Put<double>(node.threshold);
    writer->Put<int32_t>(node.left);
    writer->Put<int32_t>(node.right);
    writer->Put<int32_t>(node.leaf_offset);
  }
  writer->Put<uint64_t>(leaf_width_);
  writer->PutDoubles(leaf_values_);
}

void DecisionTree::LoadFrom(ByteReader *reader) {
  const uint64_t header = reader->Get<uint64_t>();
  const uint64_t n = header & ~kFlatTreeFormatFlag;
  if (!reader->ok()) return;
  if ((header & kFlatTreeFormatFlag) == 0 ||
      n > static_cast<uint64_t>(reader->RemainingBytes() / kTreeNodeBytes)) {
    reader->MarkCorrupt();
    return;
  }
  nodes_.clear();
  nodes_.reserve(n);
  for (uint64_t i = 0; i < n && reader->ok(); i++) {
    Node node;
    node.feature = reader->Get<int32_t>();
    node.threshold = reader->Get<double>();
    node.left = reader->Get<int32_t>();
    node.right = reader->Get<int32_t>();
    node.leaf_offset = reader->Get<int32_t>();
    nodes_.push_back(node);
  }
  leaf_width_ = reader->Get<uint64_t>();
  leaf_values_ = reader->GetDoubles();
  // Validate every node so a corrupt payload with a valid checksum can't
  // make the walk read out of bounds or loop: children must lie after their
  // parent and inside the array, and leaf offsets inside the pool.
  for (size_t id = 0; id < nodes_.size(); id++) {
    const Node &node = nodes_[id];
    bool valid;
    if (node.feature >= 0) {
      auto child_ok = [&](int32_t child) {
        return child > static_cast<int64_t>(id) &&
               static_cast<uint64_t>(child) < nodes_.size();
      };
      valid = child_ok(node.left) && child_ok(node.right);
    } else {
      valid = node.feature == -1 && node.leaf_offset >= 0 &&
              static_cast<uint64_t>(node.leaf_offset) + leaf_width_ <=
                  leaf_values_.size();
    }
    if (!valid) {
      reader->MarkCorrupt();
      return;
    }
  }
}

// --- Ensembles ----------------------------------------------------------------------

void RandomForest::Save(ByteWriter *writer) const {
  writer->Put<uint32_t>(static_cast<uint32_t>(trees_.size()));
  for (const auto &tree : trees_) tree->Save(writer);
}

void RandomForest::LoadFrom(ByteReader *reader) {
  const uint32_t n = reader->Get<uint32_t>();
  trees_.clear();
  for (uint32_t i = 0; i < n && reader->ok(); i++) {
    auto tree = std::make_unique<DecisionTree>();
    tree->LoadFrom(reader);
    trees_.push_back(std::move(tree));
  }
}

void GradientBoosting::Save(ByteWriter *writer) const {
  writer->Put<double>(learning_rate_);
  writer->PutDoubles(base_);
  writer->Put<uint32_t>(static_cast<uint32_t>(trees_.size()));
  for (const auto &tree : trees_) tree->Save(writer);
}

void GradientBoosting::LoadFrom(ByteReader *reader) {
  scorer_ = Scorer();
  learning_rate_ = reader->Get<double>();
  base_ = reader->GetDoubles();
  const uint32_t n = reader->Get<uint32_t>();
  trees_.clear();
  for (uint32_t i = 0; i < n && reader->ok(); i++) {
    auto tree = std::make_unique<DecisionTree>();
    tree->LoadFrom(reader);
    // Every tree adds into base_'s outputs.
    if (tree->leaf_width() != base_.size()) reader->MarkCorrupt();
    trees_.push_back(std::move(tree));
  }
  // The scorer is derived, never stored; a tree it cannot lay out (no
  // nodes, or more leaves than a mask holds) makes the file corrupt.
  if (reader->ok() && !BuildScorer()) reader->MarkCorrupt();
}

// --- Neural network -------------------------------------------------------------------

void NeuralNetwork::Save(ByteWriter *writer) const {
  SaveStandardizer(x_std_, writer);
  SaveStandardizer(y_std_, writer);
  writer->Put<uint32_t>(static_cast<uint32_t>(layers_.size()));
  for (const Layer &layer : layers_) {
    writer->Put<uint64_t>(layer.in);
    writer->Put<uint64_t>(layer.out);
    writer->PutDoubles(layer.w);
    writer->PutDoubles(layer.b);
  }
}

void NeuralNetwork::LoadFrom(ByteReader *reader) {
  x_std_ = LoadStandardizer(reader);
  y_std_ = LoadStandardizer(reader);
  const uint32_t n = reader->Get<uint32_t>();
  layers_.clear();
  for (uint32_t i = 0; i < n && reader->ok(); i++) {
    Layer layer;
    layer.in = reader->Get<uint64_t>();
    layer.out = reader->Get<uint64_t>();
    layer.w = reader->GetDoubles();
    layer.b = reader->GetDoubles();
    layers_.push_back(std::move(layer));
  }
  BuildBatchWeights();
}

}  // namespace mb2
