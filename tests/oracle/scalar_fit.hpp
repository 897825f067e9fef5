// The scalar fit oracle: one fit_kernel / is_realistic call per (kernel,
// prefix) slot over a single-problem Levenberg-Marquardt. The library's one
// engine (the batched fill in src/core/extrapolator.cpp) must reproduce it
// bit for bit; scalar_fill plugs into ExecContext::engine so the golden
// tests and fit_throughput's baseline can run it. Both share the start
// rule and the per-point kernel forms, so they differ only in layout.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/exec_context.hpp"
#include "core/fit_engine.hpp"
#include "core/fit_slots.hpp"
#include "core/kernels.hpp"
#include "numeric/levmar.hpp"

namespace estima::numeric {

/// Batched model callback: fills out[i] = f(xs[i]; p) for every point.
/// `out` arrives pre-sized to xs.size().
using BatchModelFn = std::function<void(const std::vector<double>& xs,
                                        const std::vector<double>& p,
                                        std::vector<double>& out)>;

/// Reusable scratch space for levenberg_marquardt. Keep one per thread and
/// pass it to every call: all per-iteration buffers (Jacobian, normal
/// equations, Cholesky factor, trial points) live here and are resized in
/// place, so repeated fits allocate nothing after warm-up.
struct LevMarWorkspace {
  /// Row-major: J is m x n; JtJ, damped and L are n x n.
  std::vector<double> J, JtJ, damped, L;
  std::vector<double> vals;      ///< model values at the current point
  std::vector<double> pj_vals;   ///< model values at a perturbed point
  std::vector<double> resid;
  std::vector<double> g, neg_g, dp, tmp;
  std::vector<double> p, pj, cand;
};

/// Minimises sum_i (f(x_i; p) - y_i)^2 starting from `initial`, using `ws`
/// for every intermediate buffer.
///
/// Non-finite model evaluations are treated as infinitely bad steps, so the
/// optimiser backs away from poles of rational models instead of diverging.
LevMarResult levenberg_marquardt(const BatchModelFn& f,
                                 const std::vector<double>& xs,
                                 const std::vector<double>& ys,
                                 std::vector<double> initial,
                                 const LevMarOptions& opts,
                                 LevMarWorkspace& ws);

/// Normal equations of a least-squares step from a row-major m x n J:
/// JtJ = J^T J (syrk-style, the lower triangle computed and mirrored) and
/// Jtr = J^T r. JtJ is n x n, Jtr has n entries.
void normal_equations_raw(const double* J, std::size_t m, std::size_t n,
                          const double* r, double* JtJ, double* Jtr);

/// normal_equations_raw over an m x n J, with JtJ and Jtr resized in place.
void normal_equations(const std::vector<double>& J, std::size_t m,
                      std::size_t n, const std::vector<double>& r,
                      std::vector<double>& JtJ, std::vector<double>& Jtr);

/// Allocation-free Cholesky: factors the n x n A into the lower-triangular
/// L (resized in place). Returns false when A is not (numerically) SPD, in
/// which case L's contents are unspecified.
bool cholesky_factor(const std::vector<double>& A, std::size_t n,
                     std::vector<double>& L);

/// Solves (L L^T) x = b given the n x n Cholesky factor L, reusing `tmp`
/// for the intermediate forward-substitution result. x and tmp are resized
/// in place; no allocation on repeated same-size use.
void cholesky_solve(const std::vector<double>& L, std::size_t n,
                    const std::vector<double>& b, std::vector<double>& tmp,
                    std::vector<double>& x);

}  // namespace estima::numeric

namespace estima::core {

/// Evaluates the kernel at every point of xs into out (resized in place,
/// so repeated calls at the same size allocate nothing). Bit-identical per
/// point to kernel_eval.
void kernel_eval_batch(KernelType type, const std::vector<double>& xs,
                       const std::vector<double>& p,
                       std::vector<double>& out);

/// Value of the denominator polynomial at n for the rational kernels and
/// ExpRat; returns 1.0 for kernels with no denominator. Bit-identical to
/// one point of kernel_denominator_panel.
double kernel_denominator(KernelType type, double n,
                          const std::vector<double>& p);

/// Checks a fitted function against the realism rules over [range_min,
/// range_max]: finite everywhere, denominator pole-free, bounded, and
/// non-negative when the data was.
bool is_realistic(const FittedFunction& f, const RealismOptions& opts,
                  double data_max_abs, bool data_nonnegative);

/// Fits `type` to the points (xs, ys). Returns std::nullopt when the fit is
/// impossible (too few points, degenerate data) or produced non-finite
/// parameters. The returned function is *not* realism-checked; callers
/// apply is_realistic with their extrapolation range. When `diag` is
/// non-null it is overwritten with the fit's diagnostic record.
std::optional<FittedFunction> fit_kernel(KernelType type,
                                         const std::vector<double>& xs,
                                         const std::vector<double>& ys,
                                         const FitOptions& opts = {},
                                         FitDiag* diag = nullptr);

/// The scalar fill job (core/fit_slots.hpp has the contract): for each of
/// kernel k's slots in turn, a fit_kernel call, one is_realistic call per
/// filter and a FittedFunction evaluation per measured core. It runs in
/// the library's one fan-out; select it with `ctx.engine = &scalar_fill`.
/// Meters no LM evaluations (returns 0).
std::size_t scalar_fill(FitSlots& slots, std::size_t k,
                        const ExecContext& ctx);

}  // namespace estima::core
