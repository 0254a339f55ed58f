#include "ml/gradient_boosting.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mb2 {

namespace {

struct FeatureSplit {
  uint32_t feature;
  uint32_t tree;
  double threshold;
  uint32_t mask;
};

/// Lays out one tree for the scorer: numbers its leaves in order, appends
/// their learning-rate-scaled values and one FeatureSplit per internal node.
struct TreeLayout {
  const std::vector<DecisionTree::Node> &nodes;
  const std::vector<double> &pool;
  size_t width, stride;
  double learning_rate;
  uint32_t tree;
  std::vector<double> *leaves;
  std::vector<FeatureSplit> *splits;
  uint32_t num_leaves = 0;

  /// False once the tree has more leaves than a mask holds. A node at depth
  /// d has d sibling subtrees beside its path, so depth >= kMaxLeaves means
  /// too many leaves; that bounds the recursion on any loaded tree.
  bool Add(int32_t id, size_t depth) {
    if (depth >= GradientBoosting::kMaxLeaves) return false;
    const DecisionTree::Node &node = nodes[static_cast<size_t>(id)];
    if (node.feature < 0) {
      if (num_leaves == GradientBoosting::kMaxLeaves) return false;
      num_leaves++;
      const double *values = pool.data() + node.leaf_offset;
      // The same product the per-tree walk forms for every row.
      for (size_t j = 0; j < width; j++) leaves->push_back(learning_rate * values[j]);
      leaves->resize(leaves->size() + stride - width, 0.0);
      return true;
    }
    const uint32_t first = num_leaves;
    if (!Add(node.left, depth + 1)) return false;
    // Failing this split (going right) rules out its left subtree's leaves.
    const uint64_t left = ((uint64_t{1} << (num_leaves - first)) - 1) << first;
    splits->push_back({static_cast<uint32_t>(node.feature), tree, node.threshold,
                       ~static_cast<uint32_t>(left)});
    return Add(node.right, depth + 1);
  }
};

}  // namespace

void GradientBoosting::Fit(const Matrix &x, const Matrix &y) {
  trees_.clear();
  scorer_ = Scorer();
  const size_t n = x.rows(), k = y.cols();
  base_.assign(k, 0.0);
  if (n == 0) return;
  for (size_t r = 0; r < n; r++) {
    for (size_t j = 0; j < k; j++) base_[j] += y.At(r, j);
  }
  for (auto &b : base_) b /= static_cast<double>(n);

  Matrix residual(n, k);
  for (size_t r = 0; r < n; r++) {
    for (size_t j = 0; j < k; j++) residual.At(r, j) = y.At(r, j) - base_[j];
  }

  for (uint32_t round = 0; round < rounds_; round++) {
    auto tree = std::make_unique<DecisionTree>(params_, rng_.Next());
    tree->Fit(x, residual);
    // r -= lr*p and r += (-lr)*p are the same IEEE operation, so the batched
    // accumulate reproduces the historical residuals bit-for-bit.
    tree->AccumulatePredictions(x, -learning_rate_, &residual);
    trees_.push_back(std::move(tree));
  }
  const bool built = BuildScorer();
  MB2_ASSERT(built, "gradient-boosting tree has more leaves than a mask holds");
}

bool GradientBoosting::BuildScorer() {
  Scorer scorer;
  const size_t width = base_.size();
  scorer.stride = (width + kLanes - 1) / kLanes * kLanes;
  std::vector<FeatureSplit> splits;
  uint32_t total_leaves = 0;
  for (size_t h = 0; h < trees_.size(); h++) {
    const DecisionTree &tree = *trees_[h];
    if (tree.nodes().empty()) return false;
    TreeLayout layout{tree.nodes(), tree.leaf_values(), width, scorer.stride,
                      learning_rate_, static_cast<uint32_t>(h), &scorer.leaves,
                      &splits};
    if (!layout.Add(0, 0)) return false;
    scorer.first_leaf.push_back(total_leaves);
    total_leaves += layout.num_leaves;
  }
  // By feature, then NaN thresholds (which every row fails), then ascending.
  std::stable_sort(splits.begin(), splits.end(),
                   [](const FeatureSplit &a, const FeatureSplit &b) {
                     if (a.feature != b.feature) return a.feature < b.feature;
                     const bool a_nan = std::isnan(a.threshold);
                     const bool b_nan = std::isnan(b.threshold);
                     if (a_nan != b_nan) return a_nan;
                     return a.threshold < b.threshold;
                   });
  for (size_t i = 0; i < splits.size(); i++) {
    const FeatureSplit &split = splits[i];
    if (scorer.features.empty() || scorer.features.back().feature != split.feature) {
      const uint32_t at = static_cast<uint32_t>(i);
      scorer.features.push_back({split.feature, at, at});
    }
    scorer.features.back().end++;
    scorer.thresholds.push_back(split.threshold);
    scorer.tree_masks.push_back(uint64_t{split.tree} << 32 | split.mask);
  }
  scorer_ = std::move(scorer);
  return true;
}

void GradientBoosting::ScoreRow(const double *x, uint32_t *exits,
                                double *out) const {
  const Scorer &s = scorer_;
  const size_t trees = s.first_leaf.size(), k = base_.size();
  std::fill(exits, exits + trees, ~uint32_t{0});
  const double *thresholds = s.thresholds.data();
  const uint64_t *tree_masks = s.tree_masks.data();
  for (const Scorer::FeatureRange &range : s.features) {
    const double v = x[range.feature];
    // The walk goes left when v <= threshold: then it does so at every
    // later split too. NaN fails them all and goes right, as in the walk.
    for (uint32_t i = range.begin, end = range.end; i < end && !(v <= thresholds[i]); i++) {
      exits[tree_masks[i] >> 32] &= static_cast<uint32_t>(tree_masks[i]);
    }
  }
  // Each bitvector becomes its exit leaf's index in s.leaves.
  for (size_t h = 0; h < trees; h++) {
    exits[h] = s.first_leaf[h] + static_cast<uint32_t>(std::countr_zero(exits[h]));
  }
  // base_ first, then the trees in order: the walk's sum, term for term.
  for (size_t c = 0; c < k; c += kLanes) {
    const size_t lanes = std::min(kLanes, k - c);
    double acc[kLanes] = {};
    for (size_t j = 0; j < lanes; j++) acc[j] = base_[c + j];
    for (size_t h = 0; h < trees; h++) {
      const double *leaf = s.leaves.data() + size_t{exits[h]} * s.stride + c;
      // Unrolled, so the sums stay in registers across the trees.
#pragma GCC unroll kLanes
      for (size_t j = 0; j < kLanes; j++) acc[j] += leaf[j];
    }
    for (size_t j = 0; j < lanes; j++) out[c + j] = acc[j];
  }
}

std::vector<double> GradientBoosting::Predict(const std::vector<double> &x) const {
  std::vector<double> out(base_.size());
  std::vector<uint32_t> exits(scorer_.first_leaf.size());
  ScoreRow(x.data(), exits.data(), out.data());
  return out;
}

void GradientBoosting::PredictBatch(const Matrix &x, Matrix *out) const {
  const size_t n = x.rows();
  out->Resize(n, base_.size());
  std::vector<uint32_t> exits(scorer_.first_leaf.size());
  for (size_t r = 0; r < n; r++) {
    ScoreRow(x.RowPtr(r), exits.data(), out->RowPtr(r));
  }
}

}  // namespace mb2
