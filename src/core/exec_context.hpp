// How a prediction is executed, as opposed to what it answers.
//
// A prediction's answer depends only on the measurements and the
// PredictionConfig (checkpoint sets, kernels, realism, fit options). That
// is the answer's identity: config_signature hashes the whole config, and
// the result cache, snapshots and campaign hashes key on it.
//
// Everything else lives here: where the fits run (pool), when they stop
// (deadline), what observes them (trace, audit, metrics), what replays them
// (memo) and the test seam that swaps the fill phase (engine). None of
// these can change a produced value — a deadline can only replace an answer
// with DeadlineExceeded, and every pool size, memo and fill yields
// byte-identical output — so none of them are part of the identity.
// Observation stays apart from the computation it observes.
#pragma once

#include <cstddef>

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
struct FitSlots;
struct PredictionAudit;
struct ExecContext;

/// One job of the fill phase: fits kernel `kernel`'s slots of `slots` that
/// the memo did not answer, runs the realism filters and predicts
/// (core/fit_slots.hpp has the contract). Returns the Levenberg-Marquardt
/// point evaluations it spent (0 when it does not meter them). May throw
/// std::bad_alloc, nothing else.
using FitFillFn = std::size_t (*)(FitSlots& slots, std::size_t kernel,
                                  const ExecContext& ctx);

struct ExecContext {
  ExecContext() = default;
  /// Implicit on purpose: `predict(ms, cfg, &pool)` reads as "run on this
  /// pool", and a pool is the knob most callers set.
  ExecContext(parallel::ThreadPool* p) : pool(p) {}

  /// Fan the independent fit jobs out across this pool: predict() runs
  /// every (series, kernel) job of a prediction in one parallel_for.
  /// Null = single-threaded.
  parallel::ThreadPool* pool = nullptr;
  /// Cooperative cancellation: the fill polls this before each fit job
  /// and skips the remaining jobs once it expires. An enumeration that
  /// lost a job to expiry returns
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
  /// Per-kernel fit metrics (attempt and candidate outcome counters plus
  /// fit-time histograms). Thread-safe and shareable process-wide.
  FitMetrics* metrics = nullptr;
  /// Cross-prediction (kernel, prefix) fit memo for streaming campaigns:
  /// fit jobs whose full input (kernel, FitOptions, prefix data bits) is
  /// already memoized replay the stored fit + FitDiag instead of
  /// executing, and executed fits are inserted for the next call.
  /// Thread-safe. Candidates, audits and serialized work accounting are
  /// unchanged; only EnumerationStats::memo_hits and the wall time move.
  /// Null = every fit executes.
  FitMemo* memo = nullptr;
  /// Test seam: a fill to run instead of the library's. Null on every
  /// production path (PredictionService rejects a base context setting
  /// it); the scalar oracle in tests/oracle/ plugs in here.
  FitFillFn engine = nullptr;
};

}  // namespace estima::core
