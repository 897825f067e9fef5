#include "core/fit_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/levmar.hpp"
#include "numeric/linalg.hpp"
#include "numeric/matrix.hpp"

namespace estima::core {
namespace {

using numeric::LeastSquaresResult;
using numeric::Matrix;

constexpr double kTiny = 1e-30;

// Solves a linear system min ||A p - b|| with QR, falling back to ridge for
// short/rank-deficient prefixes (the paper's i-in-3..n loop regularly fits
// kernels with more parameters than points).
std::optional<std::vector<double>> robust_linear_solve(
    const Matrix& A, const std::vector<double>& b, double ridge_lambda) {
  if (auto direct = numeric::least_squares(A, b)) {
    return direct->x;
  }
  LeastSquaresResult r = numeric::ridge(A, b, ridge_lambda);
  for (double v : r.x) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return r.x;
}

}  // namespace

std::optional<FittedFunction> fit_linear_kernel(
    KernelType type, const std::vector<double>& xs,
    const std::vector<double>& ys_scaled, double y_scale,
    const FitOptions& opts) {
  const std::size_t k = kernel_param_count(type);
  Matrix A(xs.size(), k);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto row = kernel_basis(type, xs[i]);
    for (std::size_t j = 0; j < k; ++j) A(i, j) = row[j];
  }
  auto p = robust_linear_solve(A, ys_scaled, opts.ridge_lambda);
  if (!p) return std::nullopt;
  return FittedFunction{type, std::move(*p), y_scale};
}

// ExpRat's linearisation requires positive values, so it is skipped on
// mixed-sign data — but the bland fallback starts still run: LM itself
// needs no positivity, and a series with a single zero point would
// otherwise lose the ExpRat candidate entirely.
std::vector<std::vector<double>> nonlinear_starts(
    KernelType type, const std::vector<double>& xs,
    const std::vector<double>& ys_scaled, const FitOptions& opts) {
  const std::size_t k = kernel_param_count(type);

  const bool needs_positive = type == KernelType::kExpRat;
  bool all_positive = true;
  for (double y : ys_scaled) {
    if (y <= 0.0) {
      all_positive = false;
      break;
    }
  }

  std::vector<std::vector<double>> starts;
  if (!needs_positive || all_positive) {
    Matrix A(xs.size(), k);
    std::vector<double> b(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto row = kernel_linearized_row(type, xs[i], ys_scaled[i]);
      for (std::size_t j = 0; j < k; ++j) A(i, j) = row[j];
      b[i] = kernel_linearized_rhs(type, xs[i], ys_scaled[i]);
    }
    if (auto p = robust_linear_solve(A, b, opts.ridge_lambda)) {
      starts.push_back(std::move(*p));
    }
  }

  // A couple of bland fallback starts so LM has somewhere to begin even if
  // the linearisation was degenerate.
  std::vector<double> flat(k, 0.0);
  // Constant-at-mean start: a0 = mean(y), everything else 0.
  double meany = 0.0;
  for (double y : ys_scaled) meany += y;
  meany /= static_cast<double>(ys_scaled.size());
  if (type == KernelType::kExpRat) {
    flat[0] = std::log(std::max(meany, kTiny));
  } else {
    flat[0] = meany;
  }
  starts.push_back(flat);
  std::vector<double> gentle(k, 0.01);
  gentle[0] = flat[0];
  starts.push_back(gentle);
  return starts;
}

namespace {

// Panel-model adapter for the multi-problem LM engine: evaluates one
// kernel over the leading points of the shared input tables, each set
// covering its own ms[s] points (the fused rounds mix prefix lengths).
struct KernelPanelCtx {
  KernelType type;
  const EvalTables* tables;
  std::size_t max_m;
};

void kernel_panel_eval(const void* vctx, const double* panel,
                       const std::size_t* ms, std::size_t n_sets, double* out,
                       std::size_t out_stride) {
  const auto* c = static_cast<const KernelPanelCtx*>(vctx);
  kernel_eval_panel_v(c->type, *c->tables, ms, c->max_m, out_stride, panel,
                      n_sets, out);
}

}  // namespace

void RealismGrid::build(const RealismOptions& opts) {
  // Must mirror the scalar oracle's is_realistic walk exactly: same
  // clamped lo, same hi, same step count, same per-point arithmetic — so
  // the grid points are the same doubles the scalar walk visits.
  const double lo = opts.range_min > 0.0 ? opts.range_min : 1.0;
  const double hi = std::max(opts.range_max, lo + 1.0);
  steps = std::min(std::max(64, static_cast<int>((hi - lo) * 4)),
                   std::max(opts.max_steps, 1));
  std::vector<double> pts(static_cast<std::size_t>(steps) + 1);
  for (int s = 0; s <= steps; ++s) {
    pts[static_cast<std::size_t>(s)] =
        lo + (hi - lo) * static_cast<double>(s) / steps;
  }
  tables.assign(pts);
}

bool realism_scan(const double* vals, const double* dens, int steps,
                  const RealismOptions& opts, double data_max_abs,
                  bool data_nonnegative) {
  const double bound =
      opts.explosion_factor * std::max(data_max_abs, kTiny);
  const double neg_floor =
      -opts.negativity_slack * std::max(data_max_abs, kTiny);
  double prev_den = 0.0;
  bool have_prev = false;
  for (int s = 0; s <= steps; ++s) {
    const double v = vals[s];
    if (!std::isfinite(v)) return false;
    if (std::fabs(v) > bound) return false;
    if (data_nonnegative && opts.require_nonnegative && v < neg_floor) {
      return false;
    }
    const double den = dens[s];
    if (std::fabs(den) < 1e-9) return false;  // pole (or nearly) in range
    if (have_prev && std::signbit(den) != std::signbit(prev_den)) {
      return false;  // denominator crosses zero inside the range
    }
    prev_den = den;
    have_prev = true;
  }
  return true;
}

void fit_kernel_over_prefixes(KernelType type, const std::vector<double>& xs,
                              const EvalTables& tables,
                              const std::vector<double>& values,
                              const std::size_t* prefixes,
                              std::size_t n_prefixes, const FitOptions& opts,
                              FitBatchWorkspace& ws,
                              std::optional<FittedFunction>* out,
                              FitDiag* diags) {
  for (std::size_t j = 0; j < n_prefixes; ++j) out[j].reset();
  if (diags != nullptr) {
    for (std::size_t j = 0; j < n_prefixes; ++j) diags[j] = FitDiag{};
  }
  if (n_prefixes == 0) return;

  // Core counts must be positive over the prefix (the scalar oracle's
  // fit_kernel guard). The points are shared, so one scan yields the
  // longest admissible prefix.
  std::size_t positive_limit = 0;
  while (positive_limit < xs.size() && xs[positive_limit] > 0.0) {
    ++positive_limit;
  }

  const bool linear = kernel_is_linear(type);
  numeric::LevMarOptions lm;
  lm.max_iterations = opts.levmar_max_iterations;

  // Gather phase: walk the prefixes once, resolving the cheap outcomes
  // (guards, all-zero shortcut, linear QR solves) inline and staging every
  // nonlinear (prefix, LM start) pair as one problem of a single lockstep
  // multi-LM batch.
  ws.ys_all.clear();
  ws.starts.clear();
  ws.prob_m.clear();
  ws.ys_off.clear();
  ws.prob_lo.assign(n_prefixes, 0);
  ws.prob_hi.assign(n_prefixes, 0);
  ws.pref_scale.assign(n_prefixes, 0.0);
  const std::size_t np = kernel_param_count(type);
  std::size_t max_m = 0;

  for (std::size_t j = 0; j < n_prefixes; ++j) {
    const std::size_t prefix = prefixes[j];
    if (prefix > xs.size() || prefix > values.size() || prefix < 2) continue;
    if (prefix > positive_limit) continue;

    double scale = 0.0;
    for (std::size_t i = 0; i < prefix; ++i) {
      scale = std::max(scale, std::fabs(values[i]));
    }
    if (scale <= 0.0) {
      // All-zero series fit trivially — except ExpRat, for which zero
      // params mean exp(0) = 1: returning them would answer an all-zero
      // campaign with a prediction of 1.0.
      if (type != KernelType::kExpRat) {
        std::vector<double> zeros(np, 0.0);
        out[j] = FittedFunction{type, std::move(zeros), 1.0};
        if (diags != nullptr) {
          diags[j].path = FitDiag::Path::kTrivial;
          diags[j].solved = true;
        }
      }
      continue;
    }

    ws.pxs.assign(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(prefix));
    ws.ys_scaled.resize(prefix);
    for (std::size_t i = 0; i < prefix; ++i) {
      ws.ys_scaled[i] = values[i] / scale;
    }

    if (linear) {
      out[j] = fit_linear_kernel(type, ws.pxs, ws.ys_scaled, scale, opts);
      if (diags != nullptr) {
        diags[j].path = FitDiag::Path::kLinear;
        diags[j].solved = out[j].has_value();
      }
      continue;
    }

    const auto starts = nonlinear_starts(type, ws.pxs, ws.ys_scaled, opts);
    if (diags != nullptr) diags[j].path = FitDiag::Path::kNonlinear;
    if (starts.empty()) continue;
    const std::size_t y_off = ws.ys_all.size();
    ws.ys_all.insert(ws.ys_all.end(), ws.ys_scaled.begin(),
                     ws.ys_scaled.end());
    ws.pref_scale[j] = scale;
    ws.prob_lo[j] = ws.prob_m.size();
    for (const auto& start : starts) {
      ws.starts.insert(ws.starts.end(), start.begin(), start.end());
      ws.prob_m.push_back(prefix);
      ws.ys_off.push_back(y_off);
    }
    ws.prob_hi[j] = ws.prob_m.size();
    max_m = std::max(max_m, prefix);
  }

  const std::size_t n_probs = ws.prob_m.size();
  if (n_probs == 0) return;

  KernelPanelCtx ctx{type, &tables, max_m};
  numeric::PanelModel model{&kernel_panel_eval, &ctx, np, max_m};
  if (ws.lm_results.size() < n_probs) ws.lm_results.resize(n_probs);
  numeric::levenberg_marquardt_multi(
      model, ws.ys_all.data(), ws.ys_off.data(), ws.prob_m.data(),
      ws.starts.data(), n_probs, lm, ws.lm, ws.lm_results.data());
  for (std::size_t s = 0; s < n_probs; ++s) {
    ws.model_evals += ws.lm_results[s].model_evals;
  }

  // Scatter phase: best-of-starts per prefix, same rule and order as the
  // scalar oracle (each problem's LM trajectory is bit-identical to a
  // sequential fit, so the winner is the scalar winner).
  for (std::size_t j = 0; j < n_prefixes; ++j) {
    if (ws.prob_lo[j] == ws.prob_hi[j]) continue;
    std::optional<FittedFunction> best;
    double best_rmse = std::numeric_limits<double>::infinity();
    for (std::size_t s = ws.prob_lo[j]; s < ws.prob_hi[j]; ++s) {
      numeric::LevMarResult& res = ws.lm_results[s];
      if (diags != nullptr) {
        diags[j].starts.push_back(FitDiag::Start{
            res.rmse, res.iterations, res.model_evals, res.term});
      }
      if (!std::isfinite(res.rmse)) continue;
      bool finite = true;
      for (double v : res.params) {
        if (!std::isfinite(v)) {
          finite = false;
          break;
        }
      }
      if (!finite) continue;
      if (res.rmse < best_rmse) {
        best_rmse = res.rmse;
        best = FittedFunction{type, res.params, ws.pref_scale[j]};
      }
    }
    if (diags != nullptr) diags[j].solved = best.has_value();
    out[j] = std::move(best);
  }
}

}  // namespace estima::core
