// Levenberg-Marquardt nonlinear least squares with a numeric Jacobian.
//
// Fits y ~= f(x; p) for the nonlinear kernels of Table 1 (the rational
// families and ExpRat). Problems are tiny (<= 7 parameters, <= a few dozen
// points) but ESTIMA runs thousands of them per prediction, so the solver
// advances many independent problems in lockstep out of one caller-provided
// workspace: after warm-up it performs no heap allocation, and each round's
// model evaluations fuse into one panel call. The single-problem solver it
// is held to, bit for bit, is the scalar oracle in tests/oracle/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace estima::numeric {

struct LevMarOptions {
  int max_iterations = 200;
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;       ///< damping multiplier on rejected step
  double lambda_down = 0.25;     ///< damping multiplier on accepted step
  double gradient_tol = 1e-12;   ///< stop when ||J^T r||_inf below this
  double step_tol = 1e-14;       ///< stop when relative step below this
  double jacobian_eps = 1e-7;    ///< relative forward-difference step
};

/// Why the solver stopped. The lockstep solver and the scalar oracle set
/// this at the same exits of the same per-problem algorithm, so for a given
/// problem the value is bit-for-bit reproducible regardless of batching.
enum class LevMarTermination : std::uint8_t {
  kNone = 0,         ///< degenerate problem (no points or no parameters)
  kConverged,        ///< gradient_tol or step_tol triggered the stop
  kMaxIterations,    ///< iteration budget exhausted
  kNoProgress,       ///< damping exhausted, last trial step was rejected
  kCholeskyFail,     ///< damping exhausted, last factorization failed
  kNudgeExhausted,   ///< never found a finite cost near the start point
  kNonFinite,        ///< model values went non-finite at the current point
};

struct LevMarResult {
  std::vector<double> params;
  double rmse = 0.0;           ///< root mean squared residual at the optimum
  int iterations = 0;
  bool converged = false;      ///< true when a tolerance triggered the stop
  std::size_t model_evals = 0; ///< model point evaluations consumed
  LevMarTermination term = LevMarTermination::kNone;  ///< why it stopped
};

/// A model evaluated panel-at-a-time: eval writes f(grid[i]; p_s) for
/// i in [0, ms[s]) to out + s * out_stride for each of the n_sets
/// parameter vectors stored contiguously in `panel` (stride n_params).
/// ms == nullptr means every set covers max_m points. Sets with different
/// point counts share one call because the lockstep engine batches
/// problems of different prefix lengths (same model family) into one
/// round. A plain function pointer + context, not std::function: the
/// multi-problem engine calls it from its innermost loop.
struct PanelModel {
  void (*eval)(const void* ctx, const double* panel, const std::size_t* ms,
               std::size_t n_sets, double* out, std::size_t out_stride) =
      nullptr;
  const void* ctx = nullptr;
  std::size_t n_params = 0;
  std::size_t max_m = 0;  ///< upper bound on any problem's point count
};

/// Scratch space for levenberg_marquardt_multi: SoA arenas holding every
/// problem's state side by side (stride n, max_m or n*n per problem), plus
/// the staging panel that fuses one round's model evaluations into a single
/// PanelModel::eval call and the queues that drain one round's damping
/// algebra through the interleaved cholesky_*_multi routines. Keep one per
/// thread; repeated same-shape calls allocate nothing.
struct MultiLevMarWorkspace {
  std::vector<double> p, vals, resid, J, JtJ, damped, L;
  std::vector<double> g, neg_g, tmp, dp, cand, h, pend;
  std::vector<double> panel, panel_out;
  std::vector<std::size_t> pend_sets, out_off, set_ms;
  std::vector<std::size_t> active;  ///< live (unconverged) problem indices
  std::vector<std::size_t> q_factor, q_retry, q_solve;  ///< algebra queues
  std::vector<const double*> cptr_a, cptr_b;            ///< chunk pointers
  std::vector<double*> ptr_a, ptr_b;
  std::vector<unsigned char> chunk_ok;  ///< bool storage (vector<bool> packs)

  /// Per-problem solver state, advanced in lockstep rounds.
  struct State {
    double cost = 0.0;
    double lambda = 0.0;
    int iter = 0;
    int tries = 0;
    int nudges = 0;
    int phase = 0;
    bool stop = false;
    bool converged = false;
    std::size_t evals = 0;
    LevMarTermination term = LevMarTermination::kNone;
  };
  std::vector<State> states;
};

/// Fits `n_probs` independent LM problems that share one model family but
/// may differ in observations and point count — the multiple starting
/// points of every (kernel, prefix) candidate of one kernel, batched
/// across prefixes. Problem s fits prob_m[s] observations starting at
/// ys + ys_off[s] from the parameter vector starts + s * n_params.
///
/// All problems advance in lockstep rounds: every problem that needs model
/// values stages its parameter sets into one panel served by a single
/// PanelModel::eval per round (a Jacobian is an n_params-set block of that
/// panel), and the round's damping factorizations drain through the
/// interleaved cholesky_*_multi routines so their sqrt/div chains overlap
/// across problems. Per problem, the arithmetic and evaluation sequence
/// are exactly those of the sequential algorithm (the scalar oracle's
/// levenberg_marquardt), so each result is bit-identical to a sequential
/// fit of the same problem.
void levenberg_marquardt_multi(const PanelModel& model, const double* ys,
                               const std::size_t* ys_off,
                               const std::size_t* prob_m,
                               const double* starts, std::size_t n_probs,
                               const LevMarOptions& opts,
                               MultiLevMarWorkspace& ws,
                               LevMarResult* results);

}  // namespace estima::numeric
