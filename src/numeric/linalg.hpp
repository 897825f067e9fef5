// Linear least-squares solvers built on Householder QR.
//
// These back the linear-in-parameters kernels (CubicLn, Poly25) and the
// linearised initial guesses for the rational kernels.
#pragma once

#include <optional>
#include <vector>

#include "numeric/matrix.hpp"

namespace estima::numeric {

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> x;   ///< solution vector
  double residual_norm;    ///< ||A x - b||_2
  std::size_t rank;        ///< estimated numerical rank of A
};

/// Solves min_x ||A x - b||_2 via Householder QR with column norm-based rank
/// detection. Returns std::nullopt when A is empty or the system is
/// numerically rank-deficient beyond repair (all-zero columns etc.); callers
/// should fall back to ridge() in that case.
std::optional<LeastSquaresResult> least_squares(const Matrix& A,
                                                const std::vector<double>& b);

/// Solves the ridge-regularised problem min_x ||A x - b||^2 + lambda ||x||^2.
/// Always returns a solution for lambda > 0 (the augmented system has full
/// column rank). Used for under-determined prefixes where the paper's
/// "i in 3..n" loop fits kernels with more parameters than points.
LeastSquaresResult ridge(const Matrix& A, const std::vector<double>& b,
                         double lambda);

// Flat-array forms of the tiny dense kernels inside the LM inner loop. The
// lockstep LM engine calls them on slices of its SoA scratch arenas (the
// problems are n <= 7, where per-call Matrix bookkeeping costs more than
// the arithmetic); the scalar oracle's Matrix forms (tests/oracle/) run
// the same loops, so both agree bit-for-bit.

/// Forms the normal equations of a least-squares step, JtJ = J^T J (n x n,
/// syrk-style: the lower triangle computed, then mirrored) and Jtr = J^T r,
/// from a column-major Jacobian: column j lives at Jc + j * ldj (ldj >= m).
/// Each forward-difference column arrives as one contiguous slice of the
/// model panel, so the engine stores J this way. Products and summation
/// order match the oracle's row-major normal_equations_raw exactly, so
/// outputs are bit-identical.
void normal_equations_cm(const double* Jc, std::size_t ldj, std::size_t m,
                         std::size_t n, const double* r, double* JtJ,
                         double* Jtr);

/// Factors the n x n row-major A into lower-triangular L (same layout;
/// entries above the diagonal are left untouched). Returns false when A is
/// not (numerically) SPD, in which case L's contents are unspecified.
bool cholesky_factor_raw(const double* A, std::size_t n, double* L);

/// Solves (L L^T) x = b for an n x n factor L; `tmp` holds the forward-
/// substitution intermediate. All arrays have n entries; b may alias
/// neither tmp nor x.
void cholesky_solve_raw(const double* L, std::size_t n, const double* b,
                        double* tmp, double* x);

// Lockstep multi-problem forms: `count` independent problems of one shared
// size n, advanced (i, j)-step by (i, j)-step in interleaved chunks so the
// per-problem sqrt/div dependency chains — the whole cost of a factor this
// small — overlap across problems instead of serializing. Per problem the
// arithmetic sequence is exactly the _raw routine's, so results are
// bit-identical; only instructions of *independent* problems interleave.
// The batched LM engine drains its per-round damping queues through these.

/// ok[i] receives cholesky_factor_raw(A[i], n, L[i]) for each problem.
void cholesky_factor_multi(std::size_t n, const double* const* A,
                           double* const* L, bool* ok, std::size_t count);

/// Per problem i: cholesky_solve_raw(L[i], n, b[i], tmp[i], x[i]).
void cholesky_solve_multi(std::size_t n, const double* const* L,
                          const double* const* b, double* const* tmp,
                          double* const* x, std::size_t count);

}  // namespace estima::numeric
