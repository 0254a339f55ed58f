#pragma once

/// \file decision_tree.h
/// Multi-output CART regression tree. Splits minimize the summed per-output
/// SSE, with each output scaled by its global variance so labels with large
/// magnitudes (cycles) don't drown out small ones (block writes). Shared by
/// the random forest and gradient boosting ensembles.

#include "common/rng.h"
#include "ml/regressor.h"

namespace mb2 {

struct TreeParams {
  uint32_t max_depth = 12;
  size_t min_samples_leaf = 4;
  size_t max_thresholds = 32;    ///< split candidates evaluated per feature
  double feature_fraction = 1.0; ///< fraction of features tried per node
};

class DecisionTree : public Regressor {
 public:
  explicit DecisionTree(TreeParams params = {}, uint64_t seed = 42)
      : params_(params), rng_(seed) {}

  void Fit(const Matrix &x, const Matrix &y) override;
  /// Fits on a subset of rows (bootstrap support for ensembles).
  void FitRows(const Matrix &x, const Matrix &y, const std::vector<size_t> &rows);

  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  /// Adds scale × leaf(row) into *out (n × leaf_width) for every row of x.
  /// Lets the ensembles fold trees into one output buffer without
  /// materializing per-tree prediction matrices.
  void AccumulatePredictions(const Matrix &x, double scale, Matrix *out) const;

  MlAlgorithm algorithm() const override { return MlAlgorithm::kRandomForest; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;

  size_t NumNodes() const { return nodes_.size(); }
  size_t leaf_width() const { return leaf_width_; }

  /// Flattened node: leaves index into the contiguous leaf_values_ pool
  /// instead of owning a heap vector, so batch traversal stays in-cache.
  /// A row goes left when row[feature] <= threshold (so NaN goes right).
  struct Node {
    int32_t feature = -1;  ///< -1 = leaf
    double threshold = 0.0;
    int32_t left = -1, right = -1;
    int32_t leaf_offset = -1;  ///< element offset into leaf_values_ (leaves)
  };
  /// The flat layout, read by gradient boosting to build its scorer. Node 0
  /// is the root; a loaded tree's children always have larger ids.
  const std::vector<Node> &nodes() const { return nodes_; }
  const std::vector<double> &leaf_values() const { return leaf_values_; }

 private:
  int32_t Build(const Matrix &x, const Matrix &y, std::vector<size_t> *rows,
                uint32_t depth);
  /// Appends the mean target vector of rows to leaf_values_; returns its offset.
  int32_t MakeLeaf(const Matrix &y, const std::vector<size_t> &rows);
  /// Iterative root-to-leaf walk; returns the leaf payload pointer.
  const double *FindLeaf(const double *row) const;

  TreeParams params_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<double> leaf_values_;  ///< contiguous pool, leaf_width_ per leaf
  size_t leaf_width_ = 0;            ///< values per leaf (= y.cols() at fit)
  std::vector<double> output_scale_;  ///< 1/var per output for split scoring
};

}  // namespace mb2
