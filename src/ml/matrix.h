#pragma once

/// \file matrix.h
/// Dense row-major matrix plus the small linear-algebra kit the regressors
/// need (Gaussian-elimination solve, standardization) and the allocation-free
/// cache-blocked GEMM kernels the batched inference path is built on.
/// OU-model problems are tiny (≤ ~11 features), so the kernels favor
/// predictable summation order over peak FLOPs: for every output element the
/// inner reduction runs in ascending index order, which makes batched
/// predictions bit-identical to row-at-a-time ones.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace mb2 {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double &At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double *RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double *RowPtr(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double> Row(size_t r) const {
    return {RowPtr(r), RowPtr(r) + cols_};
  }

  /// Returns the sub-matrix made of the given row indexes.
  Matrix SelectRows(const std::vector<size_t> &idx) const;

  /// Pre-allocates storage for `rows` × `cols` elements so subsequent
  /// AppendRow calls never reallocate. Does not change the shape.
  void Reserve(size_t rows, size_t cols) {
    data_.reserve(rows * cols);
    if (rows_ == 0 && cols_ == 0) cols_ = cols;
  }

  /// Sets the shape, reusing existing storage when capacity allows. Element
  /// values are unspecified afterwards (callers overwrite them); newly grown
  /// storage is zero-filled by the underlying vector.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void AppendRow(const std::vector<double> &row);
  /// Appends `n` doubles from a raw buffer as one row (no temporary vector).
  void AppendRow(const double *row, size_t n);

  const std::vector<double> &data() const { return data_; }

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// C (n×m) = A (n×k) · B (k×m) over row-major raw buffers; with `accumulate`
/// the product is added into C's existing contents instead. Cache-blocked
/// over output columns only: for each C element the k-summation is a single
/// ascending run, so results match a naive dot-product loop bit for bit.
/// C must not alias A or B.
void GemmKernel(const double *a, const double *b, double *c, size_t n,
                size_t k, size_t m, bool accumulate);

/// C (n×m) = A (n×k) · Bᵀ where B is (m×k) row-major — the natural layout
/// for neural-network weight matrices (out × in). Same bit-identical
/// ascending k-summation guarantee as GemmKernel.
void GemmTransposeBKernel(const double *a, const double *b, double *c,
                          size_t n, size_t k, size_t m, bool accumulate);

/// Matrix-level GEMM: *out = A · B (or += with `accumulate`). `b_rows`
/// limits the inner dimension to the first `b_rows` rows of B, letting
/// callers treat a trailing bias row separately (linear-family weight
/// matrices store the bias as their last row). Resizes *out to
/// A.rows() × B.cols(); *out must not alias A or B.
void Gemm(const Matrix &a, const Matrix &b, Matrix *out,
          bool accumulate = false, size_t b_rows = SIZE_MAX);

/// Deterministic exp() replacement shared by the single-row and batched
/// kernel-regression paths. Branch-free (input clamped to ±708, range
/// reduction by the 1.5·2^52 shift trick, degree-9 Taylor on |r| ≤ ln2/2,
/// exponent-field scaling), so the compiler can evaluate it per SIMD lane
/// with exactly the scalar bit pattern — which is what keeps PredictBatch ==
/// Predict while still vectorizing. Accuracy ~1e-11 relative; the clamp
/// saturates at exp(±708) instead of reaching 0/inf, which for kernel
/// weights (arguments ≤ 0) is indistinguishable from underflow.
inline double FastExp(double x) {
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kInvLn2 = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double xl = x < -708.0 ? -708.0 : x;  // keep the exponent field
  const double xc = xl > 708.0 ? 708.0 : xl;  // from wrapping
  const double t = xc * kInvLn2 + kShift;
  const double n = t - kShift;  // round(xc / ln2)
  const double r = (xc - n * kLn2Hi) - n * kLn2Lo;
  double p = 1.0 / 362880.0;  // 1/9!
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // 2^n assembled directly in the exponent field. The low 32 bits of the
  // shifted value hold round(x/ln2) in two's complement.
  int64_t bits;
  std::memcpy(&bits, &t, sizeof(bits));
  const int64_t pow_bits = (static_cast<int64_t>(static_cast<int32_t>(bits)) +
                            1023)
                           << 52;
  double scale;
  std::memcpy(&scale, &pow_bits, sizeof(scale));
  return p * scale;
}

/// Element-wise max(p[i], 0) in place, value-identical to the scalar ReLU in
/// NeuralNetwork::Forward (NaN passes through unchanged in both). Lives in
/// the vectorized-kernels file so the batched NN path gets a branch-free
/// SIMD loop.
void ReluInPlace(double *p, size_t n);

/// One query row of Gaussian-kernel weights against `ns` support points held
/// column-major (`xt` is d × ns: feature c of support r at xt[c*ns + r]).
/// Writes dist2[r] = Σ_c (support − query)² accumulated in ascending feature
/// order and w[r] = FastExp(-dist2[r] · inv_2h2) — the same expressions, in
/// the same order, as the row-at-a-time scan in KernelRegression::Predict,
/// but laid out so every loop vectorizes across supports.
void GaussianKernelRow(const double *xt, size_t ns, size_t d, const double *q,
                       double inv_2h2, double *dist2, double *w);

/// Solves the square system A x = b in place via Gaussian elimination with
/// partial pivoting. Returns false on a singular system. The singularity
/// test is scale-relative — a pivot counts as zero only relative to its
/// column's largest input magnitude — so well-conditioned systems in tiny
/// units (e.g. 1e-13 · I) solve instead of spuriously failing.
bool SolveLinearSystem(Matrix a, std::vector<double> b, std::vector<double> *x);

/// Z-score standardization fit on training data and reused at inference.
class Standardizer {
 public:
  void Fit(const Matrix &x);
  std::vector<double> Transform(const std::vector<double> &row) const;
  Matrix TransformAll(const Matrix &x) const;
  /// Allocation-free variant: standardizes into a caller-owned matrix
  /// (resized to x's shape), element-for-element identical to Transform.
  void TransformAllInto(const Matrix &x, Matrix *out) const;
  /// Undo for a single standardized output vector.
  std::vector<double> InverseTransform(const std::vector<double> &row) const;
  /// Row-wise InverseTransform applied to every row of a batch in place;
  /// element-for-element identical to the single-row version.
  void InverseTransformInPlace(Matrix *m) const;

  const std::vector<double> &mean() const { return mean_; }
  const std::vector<double> &stddev() const { return stddev_; }

  /// Restores a fitted state (model persistence).
  void SetState(std::vector<double> mean, std::vector<double> stddev) {
    mean_ = std::move(mean);
    stddev_ = std::move(stddev);
    RebuildInverse();
  }

 private:
  /// Transform multiplies by 1/stddev instead of dividing — one reciprocal
  /// per feature at fit time instead of a division per element at inference.
  /// Both the single-row and batched paths use the same products, so they
  /// stay bit-identical to each other.
  void RebuildInverse() {
    inv_stddev_.resize(stddev_.size());
    for (size_t c = 0; c < stddev_.size(); c++) {
      inv_stddev_[c] = 1.0 / stddev_[c];
    }
  }

  std::vector<double> mean_, stddev_, inv_stddev_;
};

}  // namespace mb2
