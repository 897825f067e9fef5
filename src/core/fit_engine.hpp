// Fitting a Table-1 kernel to the prefixes of a series of (core count,
// value) points.
//
// Linear kernels are solved directly by QR (ridge fallback for short
// prefixes); rational/ExpRat kernels get a linearised initial guess that is
// then refined by Levenberg-Marquardt. A realism filter rejects fits with
// poles, sign flips or explosions inside the extrapolation range, mirroring
// the paper's "discarding the function types that produce functions that are
// not realistic for this approximation" (Section 3.1.2).
//
// The library fits through per-kernel parameter panels and lockstep LM
// starts; the scalar oracle in tests/oracle/ holds it to bit-identity, and
// both share the start rule below.
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

struct FitOptions {
  double ridge_lambda = 1e-8;  ///< regulariser for under-determined prefixes
  int levmar_max_iterations = 120;
};

/// Per-fit diagnostic record for the audit layer: what happened to each LM
/// start (or the single direct solve) of one (kernel, prefix) fit. The
/// library and the scalar oracle fill it from the same per-problem LM
/// results, so for a given fit the record is bit-identical across them.
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

/// The linear kernels' direct solve on values already scaled to O(1):
/// QR, with a ridge fallback for short or rank-deficient prefixes.
std::optional<FittedFunction> fit_linear_kernel(
    KernelType type, const std::vector<double>& xs,
    const std::vector<double>& ys_scaled, double y_scale,
    const FitOptions& opts);

/// The LM starting points of a nonlinear kernel, in start order: the
/// linearised least-squares guess when the data admits one, then two bland
/// fallbacks. Every fitting path refines from exactly these starts.
std::vector<std::vector<double>> nonlinear_starts(
    KernelType type, const std::vector<double>& xs,
    const std::vector<double>& ys_scaled, const FitOptions& opts);

/// The realism pole-walk grid for one RealismOptions: the walk points plus
/// their log/sqrt tables, precomputed once per enumeration and shared by
/// every candidate (the grid depends only on the range, never on the fit).
struct RealismGrid {
  int steps = 0;       ///< the walk visits steps + 1 points
  EvalTables tables;   ///< grid points (and ln/sqrt) in walk order

  /// Builds the walk grid over [lo, hi]: lo is range_min (1 when <= 0), hi
  /// is max(range_max, lo + 1), steps = min(max(64, (hi - lo) * 4),
  /// max_steps).
  void build(const RealismOptions& opts);
};

/// The realism predicate over the walk values f(n) and denominators of one
/// fit on a RealismGrid: finite everywhere, |f| <= explosion_factor *
/// max|y|, not below the negativity slack when the data was non-negative,
/// and a denominator that neither nears zero nor changes sign. The scalar
/// oracle's is_realistic walks the same points with the same checks.
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
/// Linear kernels solve each prefix by fit_linear_kernel; for the
/// nonlinear kernels every (prefix, LM start) pair becomes one problem
/// of a single lockstep levenberg_marquardt_multi call, so the model
/// evaluations of all prefixes fuse into shared SoA panels and the damping
/// factorizations of independent prefixes interleave. `tables` holds the
/// precomputed EvalTables of the *full* xs; prefix j reads its leading
/// prefixes[j] entries. out[j] receives the fit for prefixes[j] (nullopt
/// for fewer than 2 points, a non-positive core count, the all-zero ExpRat
/// case or non-finite parameters). When `diags` is non-null it points at
/// n_prefixes records; diags[j] is overwritten with prefix j's diagnostic
/// record. Each problem's arithmetic is the scalar oracle's, so a batch of
/// one prefix is bit-identical to its fit_kernel.
void fit_kernel_over_prefixes(KernelType type, const std::vector<double>& xs,
                              const EvalTables& tables,
                              const std::vector<double>& values,
                              const std::size_t* prefixes,
                              std::size_t n_prefixes, const FitOptions& opts,
                              FitBatchWorkspace& ws,
                              std::optional<FittedFunction>* out,
                              FitDiag* diags = nullptr);

}  // namespace estima::core
