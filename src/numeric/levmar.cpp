#include "numeric/levmar.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "numeric/linalg.hpp"

namespace estima::numeric {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sum of squared residuals over an arena slice; +inf at the first
// non-finite value (the scalar oracle's sse_from_values, same arithmetic).
double sse_raw(const double* vals, const double* ys, std::size_t m) {
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (!std::isfinite(vals[i])) return kInf;
    const double r = vals[i] - ys[i];
    acc += r * r;
  }
  return acc;
}

double norm2_raw(const double* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i] * v[i];
  return std::sqrt(acc);
}

// Lockstep multi-problem engine. Each problem runs the exact sequential
// algorithm (the scalar oracle's levenberg_marquardt) as an explicit state
// machine; what is shared across problems is the *round*: every problem
// that needs model values stages its parameter vectors into one panel, a
// single PanelModel::eval serves them all, and the damping factorizations
// that follow drain through the interleaved cholesky_*_multi routines so
// the sqrt/div chains of independent problems overlap. Per problem the
// evaluation sequence and every arithmetic operation match the sequential
// solver, so results are bit-identical; only the grouping of evaluations
// and the interleaving of *independent* problems' instructions change.

enum : int {
  kPhaseInit = 0,  // awaiting model values at the current point p
  kPhaseJac = 1,   // awaiting the n perturbed-point panels of a Jacobian
  kPhaseDamp = 2,  // awaiting model values at a trial point cand
  kPhaseDone = 3,
};

struct MultiCtx {
  const PanelModel& model;
  const double* ys;
  const std::size_t* ys_off;
  const std::size_t* prob_m;
  const double* starts;
  const LevMarOptions& opts;
  MultiLevMarWorkspace& ws;
  LevMarResult* results;
  std::size_t max_m, n;

  double* P(std::size_t s) { return ws.p.data() + s * n; }
  double* Vals(std::size_t s) { return ws.vals.data() + s * max_m; }
  double* Resid(std::size_t s) { return ws.resid.data() + s * max_m; }
  double* Jac(std::size_t s) { return ws.J.data() + s * max_m * n; }
  double* Jtj(std::size_t s) { return ws.JtJ.data() + s * n * n; }
  double* Damped(std::size_t s) { return ws.damped.data() + s * n * n; }
  double* Ltri(std::size_t s) { return ws.L.data() + s * n * n; }
  double* G(std::size_t s) { return ws.g.data() + s * n; }
  double* NegG(std::size_t s) { return ws.neg_g.data() + s * n; }
  double* Tmp(std::size_t s) { return ws.tmp.data() + s * n; }
  double* Dp(std::size_t s) { return ws.dp.data() + s * n; }
  double* Cand(std::size_t s) { return ws.cand.data() + s * n; }
  double* H(std::size_t s) { return ws.h.data() + s * n; }
  double* Pend(std::size_t s) { return ws.pend.data() + s * n * n; }
  const double* Ys(std::size_t s) { return ys + ys_off[s]; }
  std::size_t M(std::size_t s) { return prob_m[s]; }

  void finish(std::size_t s) {
    MultiLevMarWorkspace::State& st = ws.states[s];
    LevMarResult& r = results[s];
    r.params.assign(P(s), P(s) + n);
    r.iterations = st.iter;
    r.converged = st.converged;
    r.rmse = std::isfinite(st.cost)
                 ? std::sqrt(st.cost / static_cast<double>(M(s)))
                 : kInf;
    r.model_evals = st.evals;
    r.term = st.term;
    st.phase = kPhaseDone;
    ws.pend_sets[s] = 0;
  }

  // The nudge loop never found a finite start: like the sequential
  // engine, report the *original* initial params, not the halved ones.
  void finish_on_pole(std::size_t s) {
    MultiLevMarWorkspace::State& st = ws.states[s];
    LevMarResult& r = results[s];
    r.params.assign(starts + s * n, starts + (s + 1) * n);
    r.iterations = 0;
    r.converged = false;
    r.rmse = kInf;
    r.model_evals = st.evals;
    r.term = LevMarTermination::kNudgeExhausted;
    st.phase = kPhaseDone;
    ws.pend_sets[s] = 0;
  }

  void post_point(std::size_t s, const double* params_vec, int phase) {
    std::memcpy(Pend(s), params_vec, n * sizeof(double));
    ws.pend_sets[s] = 1;
    ws.states[s].phase = phase;
  }

  // Top of the sequential for-iteration: termination checks, residuals,
  // then the forward-difference Jacobian staged as one n-set panel.
  void enter_iteration(std::size_t s) {
    MultiLevMarWorkspace::State& st = ws.states[s];
    if (st.iter >= opts.max_iterations || st.stop) {
      // st.term was already set to kConverged when a tolerance stopped us;
      // otherwise the iteration budget ran out.
      if (!st.converged) st.term = LevMarTermination::kMaxIterations;
      finish(s);
      return;
    }
    const std::size_t m = M(s);
    const double* v = Vals(s);
    const double* y = Ys(s);
    double* r = Resid(s);
    for (std::size_t i = 0; i < m; ++i) {
      if (!std::isfinite(v[i])) {
        st.term = LevMarTermination::kNonFinite;
        finish(s);
        return;
      }
      r[i] = v[i] - y[i];
    }
    const double* p = P(s);
    double* h = H(s);
    double* pend = Pend(s);
    for (std::size_t j = 0; j < n; ++j) {
      h[j] = opts.jacobian_eps * std::max(std::fabs(p[j]), 1e-8);
      double* row = pend + j * n;
      std::memcpy(row, p, n * sizeof(double));
      row[j] += h[j];
    }
    ws.pend_sets[s] = n;
    st.phase = kPhaseJac;
  }

  // Queue the problem's next damped factorization attempt. The sequential
  // damp loop runs factor attempts until one succeeds or 12 tries burn
  // out; here each attempt is staged into the round's factor queue, so
  // attempts of independent problems factor in interleaved chunks. The
  // per-problem try/lambda sequence is exactly the sequential one.
  void damp_enqueue(std::size_t s) {
    if (ws.states[s].tries < 12) {
      ws.q_factor.push_back(s);
      return;
    }
    // Damping exhausted: local minimum reached. Reached only via the
    // rejected-step path (the factor-fail path finishes in the drain), so
    // the final try matches the sequential engine's kNoProgress exit.
    ws.states[s].term = LevMarTermination::kNoProgress;
    finish(s);
  }

  void build_damped(std::size_t s) {
    const double* jtj = Jtj(s);
    double* damped = Damped(s);
    std::memcpy(damped, jtj, n * n * sizeof(double));
    const double lambda = ws.states[s].lambda;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = jtj[j * n + j];
      damped[j * n + j] += lambda * (d > 0.0 ? d : 1.0);
    }
  }

  // Drain the factor queue: interleaved factorizations, failures retry
  // with bumped lambda (requeued within the same drain), successes solve
  // in interleaved chunks and post their trial point for the next round.
  void drain_damp_queues() {
    while (!ws.q_factor.empty()) {
      const std::size_t count = ws.q_factor.size();
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t s = ws.q_factor[i];
        build_damped(s);
        ws.cptr_a[i] = Damped(s);
        ws.ptr_a[i] = Ltri(s);
      }
      static_assert(sizeof(bool) == 1, "chunk_ok reuses byte storage");
      bool* ok = reinterpret_cast<bool*>(ws.chunk_ok.data());
      cholesky_factor_multi(n, ws.cptr_a.data(), ws.ptr_a.data(), ok, count);
      ws.q_retry.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t s = ws.q_factor[i];
        if (ok[i]) {
          ws.q_solve.push_back(s);
        } else {
          MultiLevMarWorkspace::State& st = ws.states[s];
          st.lambda *= opts.lambda_up;
          ++st.tries;
          if (st.tries < 12) {
            ws.q_retry.push_back(s);
          } else {
            st.term = LevMarTermination::kCholeskyFail;
            finish(s);
          }
        }
      }
      ws.q_factor.swap(ws.q_retry);
    }
    const std::size_t count = ws.q_solve.size();
    if (count == 0) return;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = ws.q_solve[i];
      const double* g = G(s);
      double* neg_g = NegG(s);
      for (std::size_t j = 0; j < n; ++j) neg_g[j] = -g[j];
      ws.cptr_a[i] = Ltri(s);
      ws.cptr_b[i] = neg_g;
      ws.ptr_a[i] = Tmp(s);
      ws.ptr_b[i] = Dp(s);
    }
    cholesky_solve_multi(n, ws.cptr_a.data(), ws.cptr_b.data(),
                         ws.ptr_a.data(), ws.ptr_b.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = ws.q_solve[i];
      const double* p = P(s);
      const double* dp = Dp(s);
      double* cand = Cand(s);
      for (std::size_t j = 0; j < n; ++j) cand[j] = p[j] + dp[j];
      post_point(s, cand, kPhaseDamp);
    }
    ws.q_solve.clear();
  }

  void consume_init(std::size_t s, const double* out_vals) {
    MultiLevMarWorkspace::State& st = ws.states[s];
    const std::size_t m = M(s);
    std::memcpy(Vals(s), out_vals, m * sizeof(double));
    st.cost = sse_raw(out_vals, Ys(s), m);
    if (std::isfinite(st.cost)) {
      enter_iteration(s);
      return;
    }
    if (st.nudges < 16) {
      ++st.nudges;
      double* p = P(s);
      for (std::size_t j = 0; j < n; ++j) p[j] *= 0.5;
      post_point(s, p, kPhaseInit);
      return;
    }
    finish_on_pole(s);
  }

  void consume_jac(std::size_t s, const double* out_vals) {
    MultiLevMarWorkspace::State& st = ws.states[s];
    const std::size_t m = M(s);
    const double* vals = Vals(s);
    const double* h = H(s);
    // J is stored column-major (column j at J + j * max_m): each forward-
    // difference column is one contiguous slice of the model panel, so the
    // build is a dense streaming loop and the normal equations read dense
    // columns. Same arithmetic as the row-major build, different layout.
    double* J = Jac(s);
    for (std::size_t j = 0; j < n; ++j) {
      const double* col_vals = out_vals + j * max_m;
      double* cj = J + j * max_m;
      const double hj = h[j];
      for (std::size_t i = 0; i < m; ++i) {
        const double v = col_vals[i];
        cj[i] = std::isfinite(v) ? (v - vals[i]) / hj : 0.0;
      }
    }
    normal_equations_cm(J, max_m, m, n, Resid(s), Jtj(s), G(s));
    double gmax = 0.0;
    const double* g = G(s);
    for (std::size_t j = 0; j < n; ++j) gmax = std::max(gmax, std::fabs(g[j]));
    if (gmax < opts.gradient_tol) {
      st.converged = true;
      st.term = LevMarTermination::kConverged;
      finish(s);
      return;
    }
    st.tries = 0;
    damp_enqueue(s);
  }

  void consume_damp(std::size_t s, const double* out_vals) {
    MultiLevMarWorkspace::State& st = ws.states[s];
    const std::size_t m = M(s);
    const double cand_cost = sse_raw(out_vals, Ys(s), m);
    if (cand_cost < st.cost) {
      const double step = norm2_raw(Dp(s), n);
      const double scale = std::max(norm2_raw(P(s), n), 1e-12);
      std::memcpy(P(s), Cand(s), n * sizeof(double));
      std::memcpy(Vals(s), out_vals, m * sizeof(double));
      st.cost = cand_cost;
      st.lambda = std::max(st.lambda * opts.lambda_down, 1e-14);
      if (step / scale < opts.step_tol) {
        st.converged = true;
        st.stop = true;
        st.term = LevMarTermination::kConverged;
      }
      ++st.iter;
      enter_iteration(s);
      return;
    }
    st.lambda *= opts.lambda_up;
    ++st.tries;
    damp_enqueue(s);
  }
};

}  // namespace

void levenberg_marquardt_multi(const PanelModel& model, const double* ys,
                               const std::size_t* ys_off,
                               const std::size_t* prob_m,
                               const double* starts, std::size_t n_probs,
                               const LevMarOptions& opts,
                               MultiLevMarWorkspace& ws,
                               LevMarResult* results) {
  const std::size_t max_m = model.max_m;
  const std::size_t n = model.n_params;
  if (n_probs == 0) return;
  if (max_m == 0 || n == 0) {
    for (std::size_t s = 0; s < n_probs; ++s) {
      results[s].params.assign(starts + s * n, starts + (s + 1) * n);
      results[s].rmse = 0.0;
      results[s].iterations = 0;
      results[s].converged = false;
      results[s].model_evals = 0;
      results[s].term = LevMarTermination::kNone;
    }
    return;
  }

  ws.p.resize(n_probs * n);
  ws.vals.resize(n_probs * max_m);
  ws.resid.resize(n_probs * max_m);
  ws.J.resize(n_probs * max_m * n);
  ws.JtJ.resize(n_probs * n * n);
  ws.damped.resize(n_probs * n * n);
  ws.L.resize(n_probs * n * n);
  ws.g.resize(n_probs * n);
  ws.neg_g.resize(n_probs * n);
  ws.tmp.resize(n_probs * n);
  ws.dp.resize(n_probs * n);
  ws.cand.resize(n_probs * n);
  ws.h.resize(n_probs * n);
  ws.pend.resize(n_probs * n * n);
  ws.pend_sets.assign(n_probs, 0);
  ws.out_off.assign(n_probs, 0);
  ws.states.assign(n_probs, MultiLevMarWorkspace::State{});
  // Round buffers sized for the worst case up front (a problem posts at
  // most n sets per round), so the lockstep loop never reallocates.
  ws.panel.resize(n_probs * n * n);
  ws.panel_out.resize(n_probs * n * max_m);
  ws.set_ms.resize(n_probs * n);
  ws.cptr_a.resize(n_probs);
  ws.cptr_b.resize(n_probs);
  ws.ptr_a.resize(n_probs);
  ws.ptr_b.resize(n_probs);
  ws.chunk_ok.resize(n_probs);
  ws.q_factor.clear();
  ws.q_factor.reserve(n_probs);
  ws.q_retry.clear();
  ws.q_retry.reserve(n_probs);
  ws.q_solve.clear();
  ws.q_solve.reserve(n_probs);

  MultiCtx ctx{model, ys,      ys_off, prob_m, starts,
               opts,  ws,      results, max_m, n};
  for (std::size_t s = 0; s < n_probs; ++s) {
    std::memcpy(ctx.P(s), starts + s * n, n * sizeof(double));
    ws.states[s].lambda = opts.initial_lambda;
    if (prob_m[s] == 0) {
      // Degenerate problem: same result as the sequential m == 0 early
      // return. The other problems in the batch proceed normally.
      results[s].params.assign(starts + s * n, starts + (s + 1) * n);
      results[s].rmse = 0.0;
      results[s].iterations = 0;
      results[s].converged = false;
      results[s].model_evals = 0;
      results[s].term = LevMarTermination::kNone;
      ws.states[s].phase = kPhaseDone;
      continue;
    }
    ctx.post_point(s, ctx.P(s), kPhaseInit);
  }

  ws.active.clear();
  ws.active.reserve(n_probs);
  for (std::size_t s = 0; s < n_probs; ++s) {
    if (ws.pend_sets[s] != 0) ws.active.push_back(s);
  }

  for (;;) {
    // Compact the active list: problems converge at wildly different
    // iteration counts, and the long tail would otherwise pay a full
    // n_probs scan per round for a handful of live problems.
    std::size_t live = 0;
    for (std::size_t a = 0; a < ws.active.size(); ++a) {
      const std::size_t s = ws.active[a];
      if (ws.pend_sets[s] != 0) ws.active[live++] = s;
    }
    ws.active.resize(live);
    if (live == 0) break;

    // Gather: stage every pending parameter set into one fused panel.
    std::size_t total = 0;
    for (std::size_t a = 0; a < live; ++a) {
      const std::size_t s = ws.active[a];
      ws.out_off[s] = total;
      total += ws.pend_sets[s];
      std::memcpy(ws.panel.data() + ws.out_off[s] * n, ctx.Pend(s),
                  ws.pend_sets[s] * n * sizeof(double));
      for (std::size_t k = 0; k < ws.pend_sets[s]; ++k) {
        ws.set_ms[ws.out_off[s] + k] = prob_m[s];
      }
    }
    model.eval(model.ctx, ws.panel.data(), ws.set_ms.data(), total,
               ws.panel_out.data(), max_m);
    // Scatter: each problem consumes its slice and advances; problems
    // that need a damped factorization land in the round's queues and
    // drain through the interleaved Cholesky routines afterwards.
    for (std::size_t a = 0; a < live; ++a) {
      const std::size_t s = ws.active[a];
      const std::size_t posted = ws.pend_sets[s];
      ws.pend_sets[s] = 0;
      MultiLevMarWorkspace::State& st = ws.states[s];
      st.evals += posted * prob_m[s];
      const double* out_vals = ws.panel_out.data() + ws.out_off[s] * max_m;
      switch (st.phase) {
        case kPhaseInit: ctx.consume_init(s, out_vals); break;
        case kPhaseJac: ctx.consume_jac(s, out_vals); break;
        case kPhaseDamp: ctx.consume_damp(s, out_vals); break;
        default: break;
      }
    }
    ctx.drain_damp_queues();
  }
}

}  // namespace estima::numeric
