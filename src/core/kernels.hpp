// The extrapolation function kernels of Table 1 of the paper.
//
//   Rat22    (a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2)
//   Rat23    (a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2 + b3 n^3)
//   Rat33    (a0 + a1 n + a2 n^2 + a3 n^3) / (1 + b1 n + b2 n^2 + b3 n^3)
//   CubicLn  a + b ln n + c ln^2 n + d ln^3 n
//   ExpRat   exp((a + b n) / (c + d n))        (c fixed to 1: scale freedom)
//   Poly25   a + b n + c n^2 + d n^2.5
//
// Each kernel knows how to evaluate itself, whether it is linear in its
// parameters (solved by QR), and how to produce linearised initial guesses
// for the Levenberg-Marquardt refinement of the nonlinear families.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace estima::core {

enum class KernelType {
  kRat22,
  kRat23,
  kRat33,
  kCubicLn,
  kExpRat,
  kPoly25,
};

/// All kernels, in the order of Table 1.
constexpr std::array<KernelType, 6> kAllKernels = {
    KernelType::kRat22,  KernelType::kRat23, KernelType::kRat33,
    KernelType::kCubicLn, KernelType::kExpRat, KernelType::kPoly25,
};

/// Human-readable kernel name matching the paper's Table 1.
std::string kernel_name(KernelType type);

/// Inverse of kernel_name, for deserializing fitted functions. Returns
/// std::nullopt for unknown names (e.g. a kernel added by a future format
/// version) so readers can skip rather than crash.
std::optional<KernelType> kernel_from_name(const std::string& name);

/// Number of free parameters of the kernel.
std::size_t kernel_param_count(KernelType type);

/// True when the model is linear in its parameters (CubicLn, Poly25).
bool kernel_is_linear(KernelType type);

/// Evaluates the kernel at core count n for parameter vector p
/// (size == kernel_param_count). Returns NaN/Inf on poles; callers filter.
double kernel_eval(KernelType type, double n, const std::vector<double>& p);

/// Precomputed per-point input tables for the SoA evaluation panel: the
/// core counts plus their log and square root, so CubicLn/Poly25 panel
/// evaluations reuse one libm call per point instead of one per (set,
/// point). The tables hold exactly std::log(x)/std::sqrt(x) of each input,
/// so table-fed evaluations are bit-identical to the inline forms.
struct EvalTables {
  std::vector<double> n;       ///< the inputs themselves
  std::vector<double> ln_n;    ///< std::log(n[i])
  std::vector<double> sqrt_n;  ///< std::sqrt(n[i])

  void assign(const double* xs, std::size_t count);
  void assign(const std::vector<double>& xs) { assign(xs.data(), xs.size()); }
  std::size_t size() const { return n.size(); }
};

/// SoA multi-set evaluation: for each of `n_sets` parameter vectors stored
/// contiguously in `panel` (set s at panel[s * kernel_param_count(type)]),
/// writes f(t.n[i]; p_s) to out[s * m + i] for i in [0, m). `m` must be
/// <= t.size(). One dispatch per panel, parameters hoisted to scalars, no
/// per-point indirection — the loops auto-vectorize. Every output is
/// bit-identical to the corresponding kernel_eval call.
void kernel_eval_panel(KernelType type, const EvalTables& t, std::size_t m,
                       const double* panel, std::size_t n_sets, double* out);

/// Variable-length form of kernel_eval_panel: set s covers ms[s] points
/// (ms == nullptr means the uniform count m for every set) and writes its
/// row at out + s * out_stride. This is the panel contract of the lockstep
/// Levenberg-Marquardt engine, whose fused rounds mix problems of
/// different prefix lengths. Bit-identical per point to kernel_eval.
void kernel_eval_panel_v(KernelType type, const EvalTables& t,
                         const std::size_t* ms, std::size_t m,
                         std::size_t out_stride, const double* panel,
                         std::size_t n_sets, double* out);

/// The denominator polynomial of the rational kernels and ExpRat (1.0 for
/// kernels without one) over the first m points of the tables, one row per
/// parameter set: set s (at panel[s * kernel_param_count(type)]) writes
/// out[s * m + i]. The realism pole-walk evaluates every candidate of one
/// kernel over a shared grid in a single call.
void kernel_denominator_panel(KernelType type, const EvalTables& t,
                              std::size_t m, const double* panel,
                              std::size_t n_sets, double* out);

/// Basis functions for the linear kernels: returns the design-matrix row
/// for input n. Only valid for kernels where kernel_is_linear() is true.
std::vector<double> kernel_basis(KernelType type, double n);

/// Rows of the *linearised* system used to produce initial guesses for the
/// rational/ExpRat kernels: row(n, y) and rhs(n, y) such that solving
/// row·p = rhs in least squares approximates the nonlinear fit.
/// For ExpRat the y values must be positive (the caller checks).
std::vector<double> kernel_linearized_row(KernelType type, double n, double y);
double kernel_linearized_rhs(KernelType type, double n, double y);

/// A fitted instance of a kernel: evaluation is y_scale * kernel(n; p).
/// The y scale keeps the solves well-conditioned when fitting values in the
/// 1e12 range (raw cycle counts).
struct FittedFunction {
  KernelType type = KernelType::kCubicLn;
  std::vector<double> params;
  double y_scale = 1.0;

  double operator()(double n) const {
    return y_scale * kernel_eval(type, n, params);
  }
  std::vector<double> eval_many(const std::vector<int>& ns) const;
};

}  // namespace estima::core
