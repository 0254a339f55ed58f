#pragma once

/// \file gradient_boosting.h
/// Gradient boosting machine with multi-output regression trees fit to the
/// residual matrix (squared loss, so residuals ARE the negative gradients).
/// Serving runs QuickScorer (Lucchese et al., SIGIR 2015) over a layout
/// built from the trees; see Scorer below.

#include <memory>

#include "ml/decision_tree.h"

namespace mb2 {

class GradientBoosting : public Regressor {
 public:
  /// A tree's leaves are one bit each in a uint32_t mask, so a depth-5 tree
  /// (at most 32 leaves) is the deepest the scorer takes.
  static constexpr size_t kMaxLeaves = 32;
  static constexpr uint32_t kMaxDepth = 5;

  explicit GradientBoosting(uint32_t rounds = 80, double learning_rate = 0.1,
                            TreeParams params = DefaultParams(), uint64_t seed = 42)
      : rounds_(rounds), learning_rate_(learning_rate), params_(params), rng_(seed) {
    MB2_ASSERT(params.max_depth <= kMaxDepth,
               "gradient-boosting trees deeper than the scorer's leaf mask");
  }

  static TreeParams DefaultParams() {
    TreeParams p;
    p.max_depth = kMaxDepth;
    p.min_samples_leaf = 8;
    return p;
  }

  void Fit(const Matrix &x, const Matrix &y) override;
  std::vector<double> Predict(const std::vector<double> &x) const override;
  void PredictBatch(const Matrix &x, Matrix *out) const override;
  MlAlgorithm algorithm() const override { return MlAlgorithm::kGradientBoosting; }
  void Save(ByteWriter *writer) const override;
  void LoadFrom(ByteReader *reader) override;

 private:
  /// QuickScorer layout, derived from trees_ at the end of Fit and LoadFrom
  /// and never persisted. Each tree numbers its leaves in order (left to
  /// right); a row's bitvector for the tree starts all ones, and every split
  /// the row fails (goes right at) ANDs in a mask that clears the leaves of
  /// its left subtree. The exit leaf is the lowest bit left set.
  struct Scorer {
    /// Splits [begin, end) test `feature`, NaN thresholds first (a NaN
    /// threshold fails every row), then ascending: a row fails a prefix.
    struct FeatureRange {
      uint32_t feature;
      uint32_t begin, end;
    };
    std::vector<FeatureRange> features;
    /// Per split: its threshold, and its tree in the high half of
    /// tree_masks with its mask in the low half.
    std::vector<double> thresholds;
    std::vector<uint64_t> tree_masks;
    /// Per tree, the index of its first leaf in `leaves`; its size is the
    /// tree count, so a scorer never indexes past its own arrays.
    std::vector<uint32_t> first_leaf;
    /// learning_rate_ × leaf value, `stride` doubles per leaf: the leaf
    /// width rounded up to whole kLanes chunks, zero-padded.
    std::vector<double> leaves;
    size_t stride = 0;
  };
  /// Outputs summed per pass over the trees, held in registers.
  static constexpr size_t kLanes = 9;

  /// Rebuilds scorer_ from trees_; false when a tree has no nodes or more
  /// than kMaxLeaves leaves.
  bool BuildScorer();
  /// Writes base_ + Σ_trees lr × leaf(x), in tree order, to out[0, k).
  /// `exits` is scratch for one uint32_t per scorer tree.
  void ScoreRow(const double *x, uint32_t *exits, double *out) const;

  uint32_t rounds_;
  double learning_rate_;
  TreeParams params_;
  Rng rng_;
  std::vector<double> base_;  ///< initial prediction (target means)
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  Scorer scorer_;
};

}  // namespace mb2
