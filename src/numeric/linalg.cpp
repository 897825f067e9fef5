#include "numeric/linalg.hpp"

#include <cmath>
#include <limits>

namespace estima::numeric {
namespace {

// Applies a Householder reflection defined by v (with v[0..k-1] == 0 implied)
// to the trailing columns of A and to b, in place. Classic "R build" loop.
struct QrWorkspace {
  Matrix A;                // becomes R in the upper triangle
  std::vector<double> b;   // becomes Q^T b
};

// In-place Householder QR on [A | b]. Returns numerical rank of A.
std::size_t householder_qr(QrWorkspace& w) {
  const std::size_t m = w.A.rows();
  const std::size_t n = w.A.cols();
  const std::size_t steps = std::min(m, n);
  std::size_t rank = 0;
  const double eps = std::numeric_limits<double>::epsilon();

  // Largest column norm, used for the rank tolerance.
  double max_col = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < m; ++r) acc += w.A(r, c) * w.A(r, c);
    max_col = std::max(max_col, std::sqrt(acc));
  }
  const double tol = std::max(m, n) * eps * std::max(max_col, 1.0);

  std::vector<double> v(m, 0.0);
  for (std::size_t k = 0; k < steps; ++k) {
    // Build the Householder vector for column k, rows k..m-1.
    double sigma = 0.0;
    for (std::size_t r = k; r < m; ++r) sigma += w.A(r, k) * w.A(r, k);
    double alpha = std::sqrt(sigma);
    if (alpha <= tol) continue;  // (numerically) zero column: skip
    if (w.A(k, k) > 0) alpha = -alpha;

    for (std::size_t r = 0; r < k; ++r) v[r] = 0.0;
    v[k] = w.A(k, k) - alpha;
    for (std::size_t r = k + 1; r < m; ++r) v[r] = w.A(r, k);
    double vnorm2 = 0.0;
    for (std::size_t r = k; r < m; ++r) vnorm2 += v[r] * v[r];
    if (vnorm2 <= 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to A(:, k..n-1) and b.
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t r = k; r < m; ++r) proj += v[r] * w.A(r, c);
      proj = 2.0 * proj / vnorm2;
      for (std::size_t r = k; r < m; ++r) w.A(r, c) -= proj * v[r];
    }
    double projb = 0.0;
    for (std::size_t r = k; r < m; ++r) projb += v[r] * w.b[r];
    projb = 2.0 * projb / vnorm2;
    for (std::size_t r = k; r < m; ++r) w.b[r] -= projb * v[r];

    w.A(k, k) = alpha;
    for (std::size_t r = k + 1; r < m; ++r) w.A(r, k) = 0.0;
    ++rank;
  }

  // Rank = count of diagonal entries above tolerance.
  std::size_t diag_rank = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    if (std::fabs(w.A(k, k)) > tol) ++diag_rank;
  }
  return diag_rank;
}

}  // namespace

std::optional<LeastSquaresResult> least_squares(const Matrix& A,
                                                const std::vector<double>& b) {
  if (A.empty() || A.rows() != b.size()) return std::nullopt;
  const std::size_t m = A.rows();
  const std::size_t n = A.cols();
  if (m < n) return std::nullopt;  // under-determined: use ridge()

  QrWorkspace w{A, b};
  const std::size_t rank = householder_qr(w);
  if (rank < n) return std::nullopt;  // rank-deficient: use ridge()

  // Back-substitute R x = (Q^T b)[0..n-1].
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = w.b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= w.A(ii, j) * x[j];
    const double d = w.A(ii, ii);
    if (d == 0.0) return std::nullopt;
    x[ii] = acc / d;
  }

  double res2 = 0.0;
  for (std::size_t r = n; r < m; ++r) res2 += w.b[r] * w.b[r];
  return LeastSquaresResult{std::move(x), std::sqrt(std::max(res2, 0.0)),
                            rank};
}

LeastSquaresResult ridge(const Matrix& A, const std::vector<double>& b,
                         double lambda) {
  const std::size_t m = A.rows();
  const std::size_t n = A.cols();
  // Augment: [A; sqrt(lambda) I] x = [b; 0]. Full column rank for lambda>0.
  Matrix Aug(m + n, n, 0.0);
  std::vector<double> baug(m + n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) Aug(r, c) = A(r, c);
    baug[r] = b[r];
  }
  const double s = std::sqrt(std::max(lambda, 1e-300));
  for (std::size_t c = 0; c < n; ++c) Aug(m + c, c) = s;

  auto res = least_squares(Aug, baug);
  if (res) {
    // Recompute the residual against the original system.
    double r2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double pred = 0.0;
      for (std::size_t c = 0; c < n; ++c) pred += A(i, c) * res->x[c];
      const double d = pred - b[i];
      r2 += d * d;
    }
    res->residual_norm = std::sqrt(r2);
    return *res;
  }
  // Should not happen for lambda>0; return zeros as a safe fallback.
  return LeastSquaresResult{std::vector<double>(n, 0.0), norm2(b), 0};
}

void normal_equations_cm(const double* Jc, std::size_t ldj, std::size_t m,
                         std::size_t n, const double* r, double* JtJ,
                         double* Jtr) {
  // Same j/k/i loop nest as the row-major form — identical products in
  // identical summation order, so the outputs are bit-identical; only the
  // loads are contiguous (column j is one dense run of m doubles).
  for (std::size_t j = 0; j < n; ++j) {
    const double* cj = Jc + j * ldj;
    for (std::size_t k = 0; k <= j; ++k) {
      const double* ck = Jc + k * ldj;
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) acc += cj[i] * ck[i];
      JtJ[j * n + k] = acc;
      JtJ[k * n + j] = acc;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += cj[i] * r[i];
    Jtr[j] = acc;
  }
}

bool cholesky_factor_raw(const double* A, std::size_t n, double* L) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = A[i * n + j];
      for (std::size_t k = 0; k < j; ++k) acc -= L[i * n + k] * L[j * n + k];
      if (i == j) {
        if (acc <= 0.0) return false;
        L[i * n + j] = std::sqrt(acc);
      } else {
        L[i * n + j] = acc / L[j * n + j];
      }
    }
  }
  return true;
}

void cholesky_solve_raw(const double* L, std::size_t n, const double* b,
                        double* tmp, double* x) {
  // Forward: L tmp = b.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= L[i * n + j] * tmp[j];
    tmp[i] = L[i * n + i] != 0.0 ? acc / L[i * n + i] : 0.0;
  }
  // Backward: L^T x = tmp, reading L's lower triangle transposed in place.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = tmp[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= L[j * n + ii] * x[j];
    x[ii] = L[ii * n + ii] != 0.0 ? acc / L[ii * n + ii] : 0.0;
  }
}

namespace {

// W problems factored in lockstep: each (i, j) step performs the scalar
// algorithm's operation for all W matrices before moving on, so the W
// independent sqrt/div dependency chains overlap instead of serializing.
// Per problem the operation sequence is exactly cholesky_factor_raw's, so
// successful factors are bit-identical to the scalar routine. A failed
// problem (non-positive pivot) keeps computing — sqrt of a negative pivot
// yields NaN which propagates harmlessly — and is reported via ok[w]; the
// scalar routine stops at the first bad pivot instead, but its partial L
// is equally unusable, so the difference is unobservable.
template <std::size_t W>
void cholesky_factor_chunk(std::size_t n, const double* const* A,
                           double* const* L, bool* ok) {
  for (std::size_t w = 0; w < W; ++w) ok[w] = true;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc[W];
      for (std::size_t w = 0; w < W; ++w) acc[w] = A[w][i * n + j];
      for (std::size_t k = 0; k < j; ++k) {
        for (std::size_t w = 0; w < W; ++w) {
          acc[w] -= L[w][i * n + k] * L[w][j * n + k];
        }
      }
      if (i == j) {
        for (std::size_t w = 0; w < W; ++w) {
          if (acc[w] <= 0.0) ok[w] = false;
          L[w][i * n + j] = std::sqrt(acc[w]);
        }
      } else {
        for (std::size_t w = 0; w < W; ++w) {
          L[w][i * n + j] = acc[w] / L[w][j * n + j];
        }
      }
    }
  }
}

// W forward+backward substitutions in lockstep; same overlap argument as
// cholesky_factor_chunk, bit-identical per problem to cholesky_solve_raw.
template <std::size_t W>
void cholesky_solve_chunk(std::size_t n, const double* const* L,
                          const double* const* b, double* const* tmp,
                          double* const* x) {
  for (std::size_t i = 0; i < n; ++i) {
    double acc[W];
    for (std::size_t w = 0; w < W; ++w) acc[w] = b[w][i];
    for (std::size_t j = 0; j < i; ++j) {
      for (std::size_t w = 0; w < W; ++w) {
        acc[w] -= L[w][i * n + j] * tmp[w][j];
      }
    }
    for (std::size_t w = 0; w < W; ++w) {
      const double d = L[w][i * n + i];
      tmp[w][i] = d != 0.0 ? acc[w] / d : 0.0;
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc[W];
    for (std::size_t w = 0; w < W; ++w) acc[w] = tmp[w][ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      for (std::size_t w = 0; w < W; ++w) {
        acc[w] -= L[w][j * n + ii] * x[w][j];
      }
    }
    for (std::size_t w = 0; w < W; ++w) {
      const double d = L[w][ii * n + ii];
      x[w][ii] = d != 0.0 ? acc[w] / d : 0.0;
    }
  }
}

}  // namespace

void cholesky_factor_multi(std::size_t n, const double* const* A,
                           double* const* L, bool* ok, std::size_t count) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    cholesky_factor_chunk<4>(n, A + i, L + i, ok + i);
  }
  if (i + 2 <= count) {
    cholesky_factor_chunk<2>(n, A + i, L + i, ok + i);
    i += 2;
  }
  for (; i < count; ++i) ok[i] = cholesky_factor_raw(A[i], n, L[i]);
}

void cholesky_solve_multi(std::size_t n, const double* const* L,
                          const double* const* b, double* const* tmp,
                          double* const* x, std::size_t count) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    cholesky_solve_chunk<4>(n, L + i, b + i, tmp + i, x + i);
  }
  if (i + 2 <= count) {
    cholesky_solve_chunk<2>(n, L + i, b + i, tmp + i, x + i);
    i += 2;
  }
  for (; i < count; ++i) cholesky_solve_raw(L[i], n, b[i], tmp[i], x[i]);
}

}  // namespace estima::numeric
