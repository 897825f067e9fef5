// Fitting a single Table-1 kernel to a series of (core count, value) points.
//
// Linear kernels are solved directly by QR (ridge fallback for short
// prefixes); rational/ExpRat kernels get a linearised initial guess that is
// then refined by Levenberg-Marquardt. A realism filter rejects fits with
// poles, sign flips or explosions inside the extrapolation range, mirroring
// the paper's "discarding the function types that produce functions that are
// not realistic for this approximation" (Section 3.1.2).
#pragma once

#include <optional>
#include <vector>

#include "core/kernels.hpp"
#include "numeric/levmar.hpp"

namespace estima::core {

struct RealismOptions {
  double range_min = 1.0;       ///< start of the extrapolation range
  double range_max = 64.0;      ///< end of the extrapolation range
  double explosion_factor = 1e4;  ///< reject |f| > factor * max|y|
  bool require_nonnegative = true;  ///< reject negative fits of nonneg data
  double negativity_slack = 0.05;   ///< tolerated dip below zero (rel. to max)
  int max_steps = 4096;  ///< ceiling on realism-walk evaluations per candidate
};

/// Checks a fitted function against the realism rules over [range_min,
/// range_max]: finite everywhere, denominator pole-free, bounded, and
/// non-negative when the data was.
bool is_realistic(const FittedFunction& f, const RealismOptions& opts,
                  double data_max_abs, bool data_nonnegative);

struct FitOptions {
  double ridge_lambda = 1e-8;  ///< regulariser for under-determined prefixes
  int levmar_max_iterations = 120;
};

/// Per-fit diagnostic record for the audit layer: what happened to each LM
/// start (or the single direct solve) of one (kernel, prefix) fit. The
/// scalar and batched paths fill it from the same per-problem LM results,
/// so for a given fit the record is bit-identical across engines.
struct FitDiag {
  /// How the fit was produced. kGuard covers rejected inputs (too few
  /// points, non-positive cores, the all-zero ExpRat case); kTrivial the
  /// all-zero shortcut; kLinear the direct QR solve; kNonlinear the LM
  /// refinement (one Start per LM starting point, in start order).
  enum class Path : std::uint8_t { kGuard, kTrivial, kLinear, kNonlinear };
  struct Start {
    double rmse = 0.0;  ///< LM rmse in the scaled-value space
    int iterations = 0;
    std::size_t model_evals = 0;
    numeric::LevMarTermination term = numeric::LevMarTermination::kNone;
  };
  Path path = Path::kGuard;
  bool solved = false;        ///< did this fit produce a FittedFunction
  std::vector<Start> starts;  ///< nonlinear path only
};

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

// ---------------------------------------------------------------------------
// SoA batched fitting path. Everything below produces results bit-identical
// to the scalar entry points above (fit_kernel / is_realistic); it differs
// only in how the work is laid out: per-kernel parameter panels, shared
// precomputed input tables, and Levenberg-Marquardt starts advanced in
// lockstep so model evaluations fuse into panel calls.

/// The realism pole-walk grid for one RealismOptions: the walk points plus
/// their log/sqrt tables, precomputed once per enumeration and shared by
/// every candidate (the grid depends only on the range, never on the fit).
struct RealismGrid {
  int steps = 0;       ///< the walk visits steps + 1 points
  EvalTables tables;   ///< grid points (and ln/sqrt) in walk order

  /// Builds the grid exactly as the scalar is_realistic walk does:
  /// same clamped lo, same hi, same step count, same point arithmetic.
  void build(const RealismOptions& opts);
};

/// The realism predicate over precomputed walk values: applies the same
/// checks in the same order as is_realistic, so
///   realism_scan(walk values of f) == is_realistic(f)
/// for every fit and every filter sharing the grid's range.
bool realism_scan(const double* vals, const double* dens, int steps,
                  const RealismOptions& opts, double data_max_abs,
                  bool data_nonnegative);

/// Per-thread scratch for the batched fitting path: the multi-problem LM
/// workspace plus every prefix-local buffer, reused across thousands of
/// prefixes with no steady-state allocation.
struct FitBatchWorkspace {
  numeric::MultiLevMarWorkspace lm;
  std::vector<numeric::LevMarResult> lm_results;
  std::vector<double> pxs;        ///< prefix copy of the core counts
  std::vector<double> ys_scaled;  ///< prefix values scaled to O(1)
  std::vector<double> ys_all;     ///< concatenated scaled prefix values
  std::vector<double> starts;     ///< staged LM starts, one panel per kernel
  std::vector<std::size_t> prob_m, ys_off;   ///< per-LM-problem shape
  std::vector<std::size_t> prob_lo, prob_hi; ///< per-prefix problem ranges
  std::vector<double> pref_scale;            ///< per-prefix value scaling
  std::vector<double> walk_vals, walk_dens;  ///< realism walk buffers
  std::vector<double> pred_vals;  ///< batched prediction buffer
  std::vector<double> cand_panel; ///< realism candidate parameter panel
  /// LM model point evaluations, accumulated (+=) by
  /// fit_kernel_over_prefixes; reset it before a batch to meter one call.
  std::size_t model_evals = 0;
};

/// Fits ONE Table-1 kernel to every requested prefix of (xs, values) in a
/// single batched pass — the kernel-major layout of the enumeration loop.
/// Linear kernels solve each prefix by QR exactly as fit_kernel does; for
/// the nonlinear kernels every (prefix, LM start) pair becomes one problem
/// of a single lockstep levenberg_marquardt_multi call, so the model
/// evaluations of all prefixes fuse into shared SoA panels and the damping
/// factorizations of independent prefixes interleave. `tables` holds the
/// precomputed EvalTables of the *full* xs; prefix j reads its leading
/// prefixes[j] entries. out[j] receives the fit for prefixes[j],
/// bit-identical to fit_kernel(type, xs[0..prefixes[j]),
/// values[0..prefixes[j]), opts). When `diags` is non-null it points at
/// n_prefixes records; diags[j] is overwritten with the same diagnostic
/// record fit_kernel would produce for prefix j.
void fit_kernel_over_prefixes(KernelType type, const std::vector<double>& xs,
                              const EvalTables& tables,
                              const std::vector<double>& values,
                              const std::size_t* prefixes,
                              std::size_t n_prefixes, const FitOptions& opts,
                              FitBatchWorkspace& ws,
                              std::optional<FittedFunction>* out,
                              FitDiag* diags = nullptr);

}  // namespace estima::core
