// How a prediction is executed, as opposed to what it answers.
//
// A prediction's answer depends only on the measurements and the
// PredictionConfig (checkpoint sets, kernels, realism, fit options). That
// is the answer's identity: config_signature hashes the whole config, and
// the result cache, snapshots and campaign hashes key on it.
//
// Everything else lives here: where the fits run (pool), which fitting
// pipeline runs them (engine), when they stop (deadline), what observes
// them (trace, audit, metrics) and what replays them (memo). None of these
// can change a produced value — a deadline can only replace an answer with
// DeadlineExceeded, and every engine, pool size and memo yields
// byte-identical output — so none of them are part of the identity.
// Observation stays apart from the computation it observes.
#pragma once

namespace estima::parallel {
class ThreadPool;
}  // namespace estima::parallel

namespace estima::obs {
class TraceContext;
}  // namespace estima::obs

namespace estima::core {

class Deadline;
class FitMemo;
struct FitMetrics;
struct PredictionAudit;

/// Which fitting pipeline executes the (kernel, prefix) jobs. Both produce
/// bit-identical candidates — the batched engine restructures the *work*
/// (SoA panels, lockstep LM, shared tables), never the arithmetic.
enum class FitEngine {
  /// Per-prefix batched jobs: all six kernels fitted in one pass over
  /// shared EvalTables, LM starts advanced in lockstep, realism walks
  /// scanned over precomputed grids. The default.
  kBatched,
  /// The scalar per-(kernel, prefix) path: one fit_kernel / is_realistic
  /// call per job. Kept runnable as the bit-identity oracle and the
  /// benchmark baseline.
  kReference,
};

struct ExecContext {
  ExecContext() = default;
  /// Implicit on purpose: `predict(ms, cfg, &pool)` reads as "run on this
  /// pool", and a pool is the knob most callers set.
  ExecContext(parallel::ThreadPool* p) : pool(p) {}

  /// Fan the independent fit jobs (and, in predict(), the independent
  /// stall categories) out across this pool. Null = single-threaded.
  parallel::ThreadPool* pool = nullptr;
  /// Cooperative cancellation: fit jobs poll this between fits and stop
  /// early once it expires. An enumeration that observed expiry returns
  /// EMPTY candidate lists (a partial enumeration must never be scored)
  /// and reports the skips in EnumerationStats::fits_cancelled; it does
  /// not throw — callers decide, in serial context, whether to raise
  /// DeadlineExceeded. Null = never cancelled.
  const Deadline* deadline = nullptr;
  /// When set, predict() records a `fit.enumerate` wall span and the fit
  /// jobs record nested, per-worker `fit.levmar` / `fit.realism` spans
  /// (their sums aggregate CPU time across the pool). Null compiles the
  /// timing away to one branch.
  obs::TraceContext* trace = nullptr;
  /// The audit of a whole prediction, filled by predict(): one FitAudit
  /// per stall category plus the scaling factor's. The enumeration level
  /// takes its FitAudit sink as its own argument and rejects a context
  /// that carries this one. Not thread-safe: one sink per call.
  PredictionAudit* audit = nullptr;
  /// Per-kernel fit metrics (attempt/outcome counters plus fit-time
  /// histograms). Thread-safe and shareable process-wide.
  FitMetrics* metrics = nullptr;
  /// Cross-prediction (kernel, prefix) fit memo for streaming campaigns:
  /// fit jobs whose full input (kernel, FitOptions, prefix data bits) is
  /// already memoized replay the stored fit + FitDiag instead of
  /// executing, and executed fits are inserted for the next call.
  /// Thread-safe. Candidates, audits and serialized work accounting are
  /// unchanged; only EnumerationStats::memo_hits and the wall time move.
  /// Null = every fit executes.
  FitMemo* memo = nullptr;
  /// Which pipeline executes the fits.
  FitEngine engine = FitEngine::kBatched;
};

}  // namespace estima::core
