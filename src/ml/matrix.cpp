#include "ml/matrix.h"

#include <algorithm>
#include <cmath>

namespace mb2 {

Matrix Matrix::SelectRows(const std::vector<size_t> &idx) const {
  Matrix out(idx.size(), cols_);
  for (size_t i = 0; i < idx.size(); i++) {
    const double *src = RowPtr(idx[i]);
    double *dst = out.RowPtr(i);
    for (size_t c = 0; c < cols_; c++) dst[c] = src[c];
  }
  return out;
}

void Matrix::AppendRow(const std::vector<double> &row) {
  AppendRow(row.data(), row.size());
}

void Matrix::AppendRow(const double *row, size_t n) {
  if (rows_ == 0 && cols_ == 0) cols_ = n;
  MB2_ASSERT(n == cols_, "row width mismatch");
  data_.insert(data_.end(), row, row + n);
  rows_++;
}

// Output-column tile width for the transpose-B kernel: the active B panel
// (kGemmColBlock × k doubles) stays cache-resident while a row of A streams
// past it. Blocking never touches the k dimension — each output element is
// still one ascending summation, which is what keeps batched predictions
// bit-identical to row-at-a-time ones.
static constexpr size_t kGemmColBlock = 64;

// The hot kernels vectorize across independent output lanes (columns of C,
// supports of a kernel row), never across a reduction, so every lane keeps
// the scalar summation order and SIMD results are bit-identical to scalar
// ones. This file is compiled -O3 -ffp-contract=off (see src/CMakeLists.txt):
// -O3 because GCC's -O2 very-cheap vectorizer cost model refuses these loops,
// and contraction off so an FMA-capable clone can never fuse a*b+c into bits
// that differ from the scalar baseline. MB2_SIMD_CLONES additionally emits a
// runtime-dispatched AVX2 clone per kernel (defined off for sanitizer builds,
// where ifunc dispatch is not reliably instrumented).
#if defined(MB2_SIMD_CLONES) && defined(__x86_64__)
#define MB2_HOT_KERNEL \
  __attribute__((target_clones("default", "avx2")))
// The Gaussian-kernel row also gets an AVX-512 clone: its exp loop is
// auto-vectorized scalar code that widens to zmm (halving µops per element),
// unlike the GEMM tiles whose explicit 32-byte vectors gain nothing from
// wider registers (and whose avx512f clone measured slower).
#define MB2_HOT_KERNEL_WIDE \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define MB2_HOT_KERNEL
#define MB2_HOT_KERNEL_WIDE
#endif

namespace {

// GCC vector extension: elementwise 4-double arithmetic with per-lane
// semantics identical to scalar code, lowered to SSE2 pairs on the baseline
// clone and single ymm ops on the AVX2 one. Used to hand-shape the GEMM
// microkernel — auto-vectorization of the same loop picks a shuffle-heavy
// SLP pattern that is several times slower.
typedef double V4d __attribute__((vector_size(32)));

inline V4d LoadV4(const double *p) {
  V4d v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreV4(double *p, V4d v) { std::memcpy(p, &v, sizeof(v)); }
inline V4d SplatV4(double x) { return V4d{x, x, x, x}; }

/// Single-pass GEMM for small fixed m = 4·NT + NS: every output column of a
/// C row lives in a register accumulator (NT vector tiles plus NS scalar
/// tails) for one sweep over B, so B streams through the cache once instead
/// of once per column tile. Summation per element is still one ascending
/// k-run — bits match the generic kernel. always_inline so the body inherits
/// the ISA of whichever GemmKernel clone it is inlined into.
template <int NT, int NS>
__attribute__((always_inline)) inline void GemmRowsSmallM(
    const double *__restrict__ a, const double *__restrict__ b,
    double *__restrict__ c, size_t n, size_t k, size_t m, bool accumulate) {
  for (size_t i = 0; i < n; i++) {
    const double *arow = a + i * k;
    double *crow = c + i * m;
    V4d acc[NT > 0 ? NT : 1];
    double tail[NS > 0 ? NS : 1];
    for (int t = 0; t < NT; t++) {
      acc[t] = accumulate ? LoadV4(crow + 4 * t) : SplatV4(0.0);
    }
    for (int u = 0; u < NS; u++) {
      tail[u] = accumulate ? crow[4 * NT + u] : 0.0;
    }
    const double *bp = b;
    for (size_t kk = 0; kk < k; kk++, bp += m) {
      const double aik = arow[kk];
      const V4d av = SplatV4(aik);
      for (int t = 0; t < NT; t++) acc[t] += av * LoadV4(bp + 4 * t);
      for (int u = 0; u < NS; u++) tail[u] += aik * bp[4 * NT + u];
    }
    for (int t = 0; t < NT; t++) StoreV4(crow + 4 * t, acc[t]);
    for (int u = 0; u < NS; u++) crow[4 * NT + u] = tail[u];
  }
}

}  // namespace

MB2_HOT_KERNEL
void GemmKernel(const double *__restrict__ a, const double *__restrict__ b,
                double *__restrict__ c, size_t n, size_t k, size_t m,
                bool accumulate) {
  // The OU-model output widths that dominate this codebase (kNumLabels = 9
  // resource labels, 25-unit hidden layers) take the single-pass small-m
  // kernel: all columns accumulate in registers during one sweep of B, so B's
  // rows are touched once per C row instead of once per column tile plus once
  // per scalar remainder column.
  if (m == 9) return GemmRowsSmallM<2, 1>(a, b, c, n, k, m, accumulate);
  if (m == 25) return GemmRowsSmallM<6, 1>(a, b, c, n, k, m, accumulate);
  // Register-tiled: each C element lives in one of two vector accumulators
  // for the whole k-loop and is stored exactly once, instead of a
  // load/add/store round trip per k step. Lanes are output columns; each
  // lane still sees one ascending k-summation, so the bits match the naive
  // dot-product loop exactly.
  constexpr size_t kTile = 8;
  const size_t m_main = m - m % kTile;
  for (size_t i = 0; i < n; i++) {
    const double *arow = a + i * k;
    double *crow = c + i * m;
    for (size_t j0 = 0; j0 < m_main; j0 += kTile) {
      V4d acc0 = SplatV4(0.0), acc1 = SplatV4(0.0);
      if (accumulate) {
        acc0 = LoadV4(crow + j0);
        acc1 = LoadV4(crow + j0 + 4);
      }
      const double *bp = b + j0;
      for (size_t kk = 0; kk < k; kk++) {
        const V4d av = SplatV4(arow[kk]);
        acc0 += av * LoadV4(bp);
        acc1 += av * LoadV4(bp + 4);
        bp += m;
      }
      StoreV4(crow + j0, acc0);
      StoreV4(crow + j0 + 4, acc1);
    }
    for (size_t j = m_main; j < m; j++) {
      double sum = accumulate ? crow[j] : 0.0;
      for (size_t kk = 0; kk < k; kk++) sum += arow[kk] * b[kk * m + j];
      crow[j] = sum;
    }
  }
}

MB2_HOT_KERNEL
void ReluInPlace(double *__restrict__ p, size_t n) {
  for (size_t i = 0; i < n; i++) p[i] = p[i] < 0.0 ? 0.0 : p[i];
}

MB2_HOT_KERNEL
void GemmTransposeBKernel(const double *__restrict__ a,
                          const double *__restrict__ b, double *__restrict__ c,
                          size_t n, size_t k, size_t m, bool accumulate) {
  for (size_t j0 = 0; j0 < m; j0 += kGemmColBlock) {
    const size_t j1 = std::min(m, j0 + kGemmColBlock);
    for (size_t i = 0; i < n; i++) {
      const double *arow = a + i * k;
      double *crow = c + i * m;
      for (size_t j = j0; j < j1; j++) {
        const double *brow = b + j * k;
        double sum = accumulate ? crow[j] : 0.0;
        for (size_t kk = 0; kk < k; kk++) sum += arow[kk] * brow[kk];
        crow[j] = sum;
      }
    }
  }
}

void Gemm(const Matrix &a, const Matrix &b, Matrix *out, bool accumulate,
          size_t b_rows) {
  const size_t k = std::min(b.rows(), b_rows);
  MB2_ASSERT(a.cols() == k, "gemm inner dimension mismatch");
  MB2_ASSERT(out != &a && out != &b, "gemm output aliases an input");
  if (accumulate) {
    MB2_ASSERT(out->rows() == a.rows() && out->cols() == b.cols(),
               "gemm accumulate shape mismatch");
  } else {
    out->Resize(a.rows(), b.cols());
  }
  if (a.rows() == 0 || b.cols() == 0) return;
  GemmKernel(a.RowPtr(0), b.RowPtr(0), out->RowPtr(0), a.rows(), k, b.cols(),
             accumulate);
}

MB2_HOT_KERNEL_WIDE
void GaussianKernelRow(const double *__restrict__ xt, size_t ns, size_t d,
                       const double *__restrict__ q, double inv_2h2,
                       double *__restrict__ dist2, double *__restrict__ w) {
  // Eight supports across two register accumulators: xt streams through
  // exactly once, each dist2 element is stored once, and the two accumulate
  // chains overlap the add latency. Lanes are supports; each lane
  // accumulates its (support − query)² terms in ascending feature order,
  // matching the row-at-a-time scan in KernelRegression::Predict bit for
  // bit (subtraction operands in the same order, same FastExp).
  const size_t ns_main = ns - ns % 8;
  for (size_t r0 = 0; r0 < ns_main; r0 += 8) {
    V4d acc0 = SplatV4(0.0), acc1 = SplatV4(0.0);
    for (size_t c = 0; c < d; c++) {
      const double *col = xt + c * ns + r0;
      const V4d qv = SplatV4(q[c]);
      const V4d dv0 = LoadV4(col) - qv;
      const V4d dv1 = LoadV4(col + 4) - qv;
      acc0 += dv0 * dv0;
      acc1 += dv1 * dv1;
    }
    StoreV4(dist2 + r0, acc0);
    StoreV4(dist2 + r0 + 4, acc1);
  }
  for (size_t r = ns_main; r < ns; r++) {
    double sum = 0.0;
    for (size_t c = 0; c < d; c++) {
      const double dlt = xt[c * ns + r] - q[c];
      sum += dlt * dlt;
    }
    dist2[r] = sum;
  }
  // Unrolled beyond the vectorizer's default ×2: FastExp's Horner chain is
  // latency-bound, and extra independent per-vector chains let the FMA-less
  // mul/add sequence overlap across iterations.
#pragma GCC unroll 8
  for (size_t r = 0; r < ns; r++) w[r] = FastExp(-dist2[r] * inv_2h2);
}

bool SolveLinearSystem(Matrix a, std::vector<double> b, std::vector<double> *x) {
  const size_t n = a.rows();
  MB2_ASSERT(a.cols() == n && b.size() == n, "not a square system");
  // Scale-relative singularity threshold: a pivot is "zero" only relative to
  // its column's largest input magnitude, so a well-conditioned system in
  // tiny units (all entries ~1e-13) still solves while a genuinely
  // rank-deficient one — whose pivots cancel to roundoff relative to the
  // column scale — is rejected.
  std::vector<double> col_scale(n, 0.0);
  for (size_t r = 0; r < n; r++) {
    for (size_t c = 0; c < n; c++) {
      col_scale[c] = std::max(col_scale[c], std::fabs(a.At(r, c)));
    }
  }
  for (size_t col = 0; col < n; col++) {
    // Partial pivot.
    size_t pivot = col;
    for (size_t r = col + 1; r < n; r++) {
      if (std::fabs(a.At(r, col)) > std::fabs(a.At(pivot, col))) pivot = r;
    }
    if (std::fabs(a.At(pivot, col)) < 1e-12 * col_scale[col] ||
        col_scale[col] == 0.0) {
      return false;
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; c++) std::swap(a.At(col, c), a.At(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double diag = a.At(col, col);
    for (size_t r = col + 1; r < n; r++) {
      const double factor = a.At(r, col) / diag;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; c++) a.At(r, c) -= factor * a.At(col, c);
      b[r] -= factor * b[col];
    }
  }
  x->assign(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (size_t c = ri + 1; c < n; c++) sum -= a.At(ri, c) * (*x)[c];
    (*x)[ri] = sum / a.At(ri, ri);
  }
  return true;
}

void Standardizer::Fit(const Matrix &x) {
  const size_t n = x.rows(), d = x.cols();
  mean_.assign(d, 0.0);
  stddev_.assign(d, 1.0);
  if (n == 0) {
    RebuildInverse();
    return;
  }
  for (size_t r = 0; r < n; r++) {
    for (size_t c = 0; c < d; c++) mean_[c] += x.At(r, c);
  }
  for (size_t c = 0; c < d; c++) mean_[c] /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; r++) {
    for (size_t c = 0; c < d; c++) {
      const double dlt = x.At(r, c) - mean_[c];
      var[c] += dlt * dlt;
    }
  }
  for (size_t c = 0; c < d; c++) {
    const double s = std::sqrt(var[c] / static_cast<double>(n));
    stddev_[c] = s < 1e-12 ? 1.0 : s;
  }
  RebuildInverse();
}

std::vector<double> Standardizer::Transform(const std::vector<double> &row) const {
  std::vector<double> out(row.size());
  for (size_t c = 0; c < row.size(); c++) {
    out[c] = (row[c] - mean_[c]) * inv_stddev_[c];
  }
  return out;
}

Matrix Standardizer::TransformAll(const Matrix &x) const {
  Matrix out;
  TransformAllInto(x, &out);
  return out;
}

void Standardizer::TransformAllInto(const Matrix &x, Matrix *out) const {
  out->Resize(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); r++) {
    const double *src = x.RowPtr(r);
    double *dst = out->RowPtr(r);
    for (size_t c = 0; c < x.cols(); c++) {
      dst[c] = (src[c] - mean_[c]) * inv_stddev_[c];
    }
  }
}

std::vector<double> Standardizer::InverseTransform(
    const std::vector<double> &row) const {
  std::vector<double> out(row.size());
  for (size_t c = 0; c < row.size(); c++) out[c] = row[c] * stddev_[c] + mean_[c];
  return out;
}

void Standardizer::InverseTransformInPlace(Matrix *m) const {
  for (size_t r = 0; r < m->rows(); r++) {
    double *row = m->RowPtr(r);
    for (size_t c = 0; c < m->cols(); c++) {
      row[c] = row[c] * stddev_[c] + mean_[c];
    }
  }
}

}  // namespace mb2
