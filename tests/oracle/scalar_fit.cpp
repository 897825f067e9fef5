#include "oracle/scalar_fit.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/fit_audit.hpp"
#include "core/kernel_points.hpp"
#include "numeric/linalg.hpp"
#include "obs/trace.hpp"

namespace estima::numeric {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sum of squared residuals from pre-evaluated model values; +inf when any
// value is non-finite.
double sse_from_values(const std::vector<double>& vals,
                       const std::vector<double>& ys) {
  double acc = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (!std::isfinite(vals[i])) return kInf;
    const double r = vals[i] - ys[i];
    acc += r * r;
  }
  return acc;
}

double sse(const BatchModelFn& f, const std::vector<double>& xs,
           const std::vector<double>& ys, const std::vector<double>& p,
           std::vector<double>& vals) {
  vals.resize(xs.size());
  f(xs, p, vals);
  return sse_from_values(vals, ys);
}

}  // namespace

LevMarResult levenberg_marquardt(const BatchModelFn& f,
                                 const std::vector<double>& xs,
                                 const std::vector<double>& ys,
                                 std::vector<double> initial,
                                 const LevMarOptions& opts,
                                 LevMarWorkspace& ws) {
  const std::size_t m = xs.size();
  const std::size_t n = initial.size();
  LevMarResult out;
  out.params = initial;
  if (m == 0 || n == 0) return out;

  ws.p = std::move(initial);
  std::vector<double>& p = ws.p;
  double cost = sse(f, xs, ys, p, ws.vals);
  out.model_evals += m;
  if (!std::isfinite(cost)) {
    // The starting point is on a pole; nudge towards zero until finite.
    for (int attempt = 0; attempt < 16 && !std::isfinite(cost); ++attempt) {
      for (double& v : p) v *= 0.5;
      cost = sse(f, xs, ys, p, ws.vals);
      out.model_evals += m;
    }
    if (!std::isfinite(cost)) {
      out.rmse = kInf;
      out.term = LevMarTermination::kNudgeExhausted;
      return out;
    }
  }

  out.term = LevMarTermination::kMaxIterations;
  double lambda = opts.initial_lambda;
  ws.J.assign(m * n, 0.0);
  ws.resid.resize(m);
  ws.pj_vals.resize(m);

  int iter = 0;
  bool stop = false;
  for (; iter < opts.max_iterations && !stop; ++iter) {
    // Residuals at p; ws.vals already holds the model values for the
    // current point (sse keeps it in sync with every accepted step).
    bool finite = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (!std::isfinite(ws.vals[i])) {
        finite = false;
        break;
      }
      ws.resid[i] = ws.vals[i] - ys[i];
    }
    if (!finite) {
      out.term = LevMarTermination::kNonFinite;
      break;
    }

    // Forward-difference Jacobian, one batched model sweep per column.
    for (std::size_t j = 0; j < n; ++j) {
      const double h =
          opts.jacobian_eps * std::max(std::fabs(p[j]), 1e-8);
      ws.pj = p;
      ws.pj[j] += h;
      f(xs, ws.pj, ws.pj_vals);
      out.model_evals += m;
      for (std::size_t i = 0; i < m; ++i) {
        const double v = ws.pj_vals[i];
        ws.J[i * n + j] = std::isfinite(v) ? (v - ws.vals[i]) / h : 0.0;
      }
    }

    // Normal equations formed directly: J^T J and g = J^T r.
    normal_equations(ws.J, m, n, ws.resid, ws.JtJ, ws.g);

    double gmax = 0.0;
    for (double v : ws.g) gmax = std::max(gmax, std::fabs(v));
    if (gmax < opts.gradient_tol) {
      out.converged = true;
      out.term = LevMarTermination::kConverged;
      break;
    }

    bool step_taken = false;
    bool factor_failed_last = false;
    for (int tries = 0; tries < 12 && !step_taken; ++tries) {
      ws.damped = ws.JtJ;
      for (std::size_t j = 0; j < n; ++j) {
        const double d = ws.JtJ[j * n + j];
        ws.damped[j * n + j] += lambda * (d > 0.0 ? d : 1.0);
      }
      if (!cholesky_factor(ws.damped, n, ws.L)) {
        factor_failed_last = true;
        lambda *= opts.lambda_up;
        continue;
      }
      ws.neg_g.resize(n);
      for (std::size_t j = 0; j < n; ++j) ws.neg_g[j] = -ws.g[j];
      cholesky_solve(ws.L, n, ws.neg_g, ws.tmp, ws.dp);

      ws.cand.resize(n);
      for (std::size_t j = 0; j < n; ++j) ws.cand[j] = p[j] + ws.dp[j];
      const double cand_cost = sse(f, xs, ys, ws.cand, ws.pj_vals);
      out.model_evals += m;
      if (cand_cost < cost) {
        const double step = norm2(ws.dp);
        const double scale = std::max(norm2(p), 1e-12);
        p.swap(ws.cand);
        ws.vals.swap(ws.pj_vals);  // model values at the accepted point
        cost = cand_cost;
        lambda = std::max(lambda * opts.lambda_down, 1e-14);
        step_taken = true;
        if (step / scale < opts.step_tol) {
          out.converged = true;
          out.term = LevMarTermination::kConverged;
          stop = true;
        }
      } else {
        factor_failed_last = false;
        lambda *= opts.lambda_up;
      }
    }
    if (!step_taken) {
      // Damping exhausted: local minimum reached. Report what the final
      // try did — the distinction (singular system vs rejected step) is
      // what the fit audit surfaces.
      out.term = factor_failed_last ? LevMarTermination::kCholeskyFail
                                    : LevMarTermination::kNoProgress;
      break;
    }
  }

  out.params = p;
  out.iterations = iter;
  out.rmse = std::isfinite(cost) ? std::sqrt(cost / static_cast<double>(m))
                                 : kInf;
  return out;
}

void normal_equations_raw(const double* J, std::size_t m, std::size_t n,
                          const double* r, double* JtJ, double* Jtr) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k <= j; ++k) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) acc += J[i * n + j] * J[i * n + k];
      JtJ[j * n + k] = acc;
      JtJ[k * n + j] = acc;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += J[i * n + j] * r[i];
    Jtr[j] = acc;
  }
}

void normal_equations(const std::vector<double>& J, std::size_t m,
                      std::size_t n, const std::vector<double>& r,
                      std::vector<double>& JtJ, std::vector<double>& Jtr) {
  JtJ.assign(n * n, 0.0);
  Jtr.assign(n, 0.0);
  normal_equations_raw(J.data(), m, n, r.data(), JtJ.data(), Jtr.data());
}

bool cholesky_factor(const std::vector<double>& A, std::size_t n,
                     std::vector<double>& L) {
  L.assign(n * n, 0.0);
  return cholesky_factor_raw(A.data(), n, L.data());
}

void cholesky_solve(const std::vector<double>& L, std::size_t n,
                    const std::vector<double>& b, std::vector<double>& tmp,
                    std::vector<double>& x) {
  tmp.assign(n, 0.0);
  x.assign(n, 0.0);
  cholesky_solve_raw(L.data(), n, b.data(), tmp.data(), x.data());
}

}  // namespace estima::numeric

namespace estima::core {
namespace {

constexpr double kTiny = 1e-30;

double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

// Rational / ExpRat kernels: linearised initial guess + LM refinement.
std::optional<FittedFunction> fit_nonlinear_kernel(
    KernelType type, const std::vector<double>& xs,
    const std::vector<double>& ys_scaled, double y_scale,
    const FitOptions& opts, FitDiag* diag) {
  auto starts = nonlinear_starts(type, xs, ys_scaled, opts);

  numeric::LevMarOptions lm;
  lm.max_iterations = opts.levmar_max_iterations;
  const auto model = [type](const std::vector<double>& bxs,
                            const std::vector<double>& p,
                            std::vector<double>& out) {
    kernel_eval_batch(type, bxs, p, out);
  };
  // One workspace per thread: enumerate_candidates fans fits out across a
  // pool, and each worker reuses its buffers across thousands of fits.
  thread_local numeric::LevMarWorkspace ws;

  std::optional<FittedFunction> best;
  double best_rmse = std::numeric_limits<double>::infinity();
  for (auto& start : starts) {
    auto res =
        numeric::levenberg_marquardt(model, xs, ys_scaled, start, lm, ws);
    if (diag != nullptr) {
      diag->starts.push_back(
          FitDiag::Start{res.rmse, res.iterations, res.model_evals, res.term});
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
      best = FittedFunction{type, std::move(res.params), y_scale};
    }
  }
  if (diag != nullptr) diag->solved = best.has_value();
  return best;
}

}  // namespace

void kernel_eval_batch(KernelType type, const std::vector<double>& xs,
                       const std::vector<double>& p,
                       std::vector<double>& out) {
  out.resize(xs.size());
  const std::size_t m = xs.size();
  const double* ns = xs.data();
  double* o = out.data();
  switch (type) {
    case KernelType::kRat22: {
      const double a0 = p[0], a1 = p[1], a2 = p[2], b1 = p[3], b2 = p[4];
      for (std::size_t i = 0; i < m; ++i) {
        o[i] = rat22_point(ns[i], a0, a1, a2, b1, b2);
      }
      return;
    }
    case KernelType::kRat23: {
      const double a0 = p[0], a1 = p[1], a2 = p[2];
      const double b1 = p[3], b2 = p[4], b3 = p[5];
      for (std::size_t i = 0; i < m; ++i) {
        o[i] = rat23_point(ns[i], a0, a1, a2, b1, b2, b3);
      }
      return;
    }
    case KernelType::kRat33: {
      const double a0 = p[0], a1 = p[1], a2 = p[2], a3 = p[3];
      const double b1 = p[4], b2 = p[5], b3 = p[6];
      for (std::size_t i = 0; i < m; ++i) {
        o[i] = rat33_point(ns[i], a0, a1, a2, a3, b1, b2, b3);
      }
      return;
    }
    case KernelType::kCubicLn: {
      const double a = p[0], b = p[1], c = p[2], d = p[3];
      for (std::size_t i = 0; i < m; ++i) {
        o[i] = cubicln_point(std::log(ns[i]), a, b, c, d);
      }
      return;
    }
    case KernelType::kExpRat: {
      const double a = p[0], b = p[1], d = p[2];
      for (std::size_t i = 0; i < m; ++i) {
        o[i] = exprat_point(ns[i], a, b, d);
      }
      return;
    }
    case KernelType::kPoly25: {
      const double a = p[0], b = p[1], c = p[2], d = p[3];
      for (std::size_t i = 0; i < m; ++i) {
        o[i] = poly25_point(ns[i], std::sqrt(ns[i]), a, b, c, d);
      }
      return;
    }
  }
  for (double& v : out) v = std::nan("");
}

double kernel_denominator(KernelType type, double n,
                          const std::vector<double>& p) {
  switch (type) {
    case KernelType::kRat22:
      return 1.0 + p[3] * n + p[4] * (n * n);
    case KernelType::kRat23: {
      const double n2 = n * n;
      return 1.0 + p[3] * n + p[4] * n2 + p[5] * (n2 * n);
    }
    case KernelType::kRat33: {
      const double n2 = n * n;
      return 1.0 + p[4] * n + p[5] * n2 + p[6] * (n2 * n);
    }
    case KernelType::kExpRat:
      return 1.0 + p[2] * n;
    case KernelType::kCubicLn:
    case KernelType::kPoly25:
      return 1.0;
  }
  return 1.0;
}

bool is_realistic(const FittedFunction& f, const RealismOptions& opts,
                  double data_max_abs, bool data_nonnegative) {
  const double bound =
      opts.explosion_factor * std::max(data_max_abs, kTiny);
  const double neg_floor =
      -opts.negativity_slack * std::max(data_max_abs, kTiny);

  // Walk the range densely enough to catch poles between integer counts,
  // but never more finely than max_steps: on wide extrapolation ranges the
  // un-capped walk did thousands of kernel evals per candidate and
  // dominated enumeration time, while a pole narrower than the capped grid
  // spacing is not reachable from a fit through integer core counts.
  // Core counts are positive, so a range_min <= 0 (callers may pass 0 for
  // "from the start") is clamped: walking CubicLn through log(n <= 0)
  // would NaN-reject perfectly good fits over the real range.
  const double lo = opts.range_min > 0.0 ? opts.range_min : 1.0;
  const double hi = std::max(opts.range_max, lo + 1.0);
  const int steps = std::min(std::max(64, static_cast<int>((hi - lo) * 4)),
                             std::max(opts.max_steps, 1));
  double prev_den = 0.0;
  bool have_prev = false;
  for (int s = 0; s <= steps; ++s) {
    const double n = lo + (hi - lo) * static_cast<double>(s) / steps;
    const double v = f(n);
    if (!std::isfinite(v)) return false;
    if (std::fabs(v) > bound) return false;
    if (data_nonnegative && opts.require_nonnegative && v < neg_floor) {
      return false;
    }
    const double den = kernel_denominator(f.type, n, f.params);
    if (std::fabs(den) < 1e-9) return false;  // pole (or nearly) in range
    if (have_prev && std::signbit(den) != std::signbit(prev_den)) {
      return false;  // denominator crosses zero inside the range
    }
    prev_den = den;
    have_prev = true;
  }
  return true;
}

std::optional<FittedFunction> fit_kernel(KernelType type,
                                         const std::vector<double>& xs,
                                         const std::vector<double>& ys,
                                         const FitOptions& opts,
                                         FitDiag* diag) {
  if (diag != nullptr) *diag = FitDiag{};  // Path::kGuard until proven better
  if (xs.size() != ys.size() || xs.size() < 2) return std::nullopt;
  for (double x : xs) {
    if (!(x > 0.0)) return std::nullopt;  // core counts are positive
  }

  // Scale values to O(1) for conditioning. All-zero series fit trivially —
  // but only for kernels where zero params evaluate to zero. ExpRat has no
  // parameter vector producing the zero function (exp(anything) > 0), and
  // zero params mean exp(0) = 1: returning them would answer an all-zero
  // campaign with a prediction of 1.0.
  const double scale = max_abs(ys);
  if (scale <= 0.0) {
    if (type == KernelType::kExpRat) return std::nullopt;
    if (diag != nullptr) {
      diag->path = FitDiag::Path::kTrivial;
      diag->solved = true;
    }
    std::vector<double> zeros(kernel_param_count(type), 0.0);
    return FittedFunction{type, std::move(zeros), 1.0};
  }
  std::vector<double> ys_scaled(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) ys_scaled[i] = ys[i] / scale;

  if (kernel_is_linear(type)) {
    auto fitted = fit_linear_kernel(type, xs, ys_scaled, scale, opts);
    if (diag != nullptr) {
      diag->path = FitDiag::Path::kLinear;
      diag->solved = fitted.has_value();
    }
    return fitted;
  }
  if (diag != nullptr) diag->path = FitDiag::Path::kNonlinear;
  return fit_nonlinear_kernel(type, xs, ys_scaled, scale, opts, diag);
}

std::size_t scalar_fill(FitSlots& sl, std::size_t k, const ExecContext& ctx) {
  const std::vector<double>& xs = sl.xs;
  const std::vector<double>& values = *sl.values;
  const KernelType type = kAllKernels[k];
  for (std::size_t s = k; s < sl.n_slots; s += FitSlots::K) {
    if (!sl.replayed[s]) {
      const int i = sl.prefix_of(s);
      const std::vector<double> pxs(xs.begin(), xs.begin() + i);
      const std::vector<double> pys(values.begin(), values.begin() + i);
      obs::SpanTimer levmar_span(ctx.trace, obs::Stage::kFitLevmar);
      std::chrono::steady_clock::time_point t0;
      if (ctx.metrics != nullptr) t0 = std::chrono::steady_clock::now();
      FitDiag local;  // the attempts metrics read when no slot keeps one
      FitDiag* diag = !sl.diags.empty()      ? &sl.diags[s]
                      : ctx.metrics != nullptr ? &local
                                               : nullptr;
      sl.fits[s] = fit_kernel(type, pxs, pys, *sl.fit, diag);
      if (ctx.metrics != nullptr) {
        ctx.metrics->record_fit_seconds(type, elapsed_seconds(t0));
        ctx.metrics->count_attempts(type, *diag);
      }
    }
    if (!sl.fits[s]) continue;
    const FittedFunction& fn = *sl.fits[s];
    std::uint64_t mask = 0;
    {
      obs::SpanTimer realism_span(ctx.trace, obs::Stage::kFitRealism);
      for (std::size_t v = 0; v < sl.filters.size(); ++v) {
        if (is_realistic(fn, sl.filters[v], sl.vmax, sl.nonneg)) {
          mask |= std::uint64_t{1} << v;
        }
      }
    }
    sl.realistic[s] = mask;
    if (mask == 0) continue;
    double* pred = sl.pred(s);
    for (std::size_t j = sl.pred_lo; j < xs.size(); ++j) {
      pred[j - sl.pred_lo] = fn(xs[j]);
    }
  }
  return 0;
}

}  // namespace estima::core
