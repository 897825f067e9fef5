// Checkpoint-based series extrapolation (Section 3.1.2, Figure 4).
//
// Given m measurements of one stall-cycle category, ESTIMA:
//  1. designates the c highest-core-count measurements as checkpoints
//     (c in {2, 4} by default);
//  2. fits every Table-1 kernel on each prefix i = 3..n of the remaining
//     n = m - c points, discarding unrealistic fits;
//  3. scores every candidate by RMSE at the checkpoints;
//  4. keeps the minimiser and uses it to extrapolate.
//
// The fit of a (kernel, prefix) pair depends only on the prefix, never on
// the checkpoint setting, so the enumeration executes each pair once and
// re-scores that one fit against every checkpoint set. An
// EnumerationBatch plans several enumerations — predict() plans every
// series of a prediction — and fans all their (enumeration, kernel) fit
// jobs out in one parallel::parallel_for; candidate assembly and scoring
// stay serial in a fixed order, so results are bit-identical regardless of
// memo or thread count (core/fit_slots.hpp has the plan / fill / score
// split). The single-series entry points below are one-enumeration
// batches.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deadline.hpp"
#include "core/exec_context.hpp"
#include "core/fit_engine.hpp"
#include "core/kernels.hpp"

namespace estima::core {

struct FitAudit;

/// The extrapolation settings: every field can change the answer, and
/// config_signature hashes all of them. How the fits are executed (pool,
/// deadline, sinks, memo) is an ExecContext, passed beside it.
struct ExtrapolationConfig {
  /// Checkpoint counts to try; the paper's experiments use 2 and 4.
  std::vector<int> checkpoint_counts = {2, 4};
  int min_prefix = 3;           ///< smallest prefix length fitted
  double target_max_cores = 64; ///< realism + extrapolation horizon
  RealismOptions realism;       ///< range is overwritten from target_max
  FitOptions fit;
};

/// One scored candidate fit (kept for diagnostics / bench output).
struct CandidateFit {
  FittedFunction fn;
  int prefix_len = 0;
  int checkpoints = 0;
  double checkpoint_rmse = 0.0;
};

/// Work accounting for one enumeration, reported by enumerate_candidates
/// so callers never have to re-derive the combinatorics.
struct EnumerationStats {
  /// kernel x prefix x checkpoint-setting combinations considered, summed
  /// over every realism filter scored.
  std::size_t candidates_attempted = 0;
  /// (kernel, prefix) fits executed: one per slot of the job layout.
  std::size_t fits_executed = 0;
  /// Refits avoided by sharing: one (kernel, prefix) fit across checkpoint
  /// settings plus the fit pool across realism filters. Zero when a single
  /// checkpoint setting and a single filter are scored.
  std::size_t duplicate_fits_eliminated = 0;
  /// Realism filters scored against this enumeration's shared fit pool
  /// (1 for the single-filter entry points).
  std::size_t realism_variants = 1;
  /// Fit executions the additional realism filters reused instead of
  /// rerunning — a strict-then-relaxed retry would refit everything.
  std::size_t variant_refits_avoided = 0;
  /// Model point evaluations consumed by Levenberg-Marquardt refinement.
  /// Like every accounting field it is outside the bit-identity contract
  /// and not serialised (the scalar oracle leaves it 0).
  std::size_t levmar_point_evals = 0;
  /// Fit jobs answered from ExecContext::memo instead of executing.
  /// Counted inside fits_executed (a memo hit replays an execution, it
  /// does not change the enumeration's job ledger — fits_executed is
  /// serialised and must stay identical with or without a memo); like
  /// levmar_point_evals this field is accounting only, never serialised.
  std::size_t memo_hits = 0;
  /// Fit jobs skipped because ExecContext::deadline expired
  /// mid-enumeration. Any nonzero value means the candidate lists were
  /// abandoned (returned empty) and the caller should treat the
  /// computation as cancelled.
  std::size_t fits_cancelled = 0;
  /// Fit jobs abandoned because a workspace allocation failed. Nonzero
  /// means the candidate lists were abandoned (returned empty): dropping
  /// just the failed candidates could silently change which fit wins.
  std::size_t fits_aborted = 0;
};

/// The outcome of extrapolating one series.
struct SeriesExtrapolation {
  FittedFunction best;
  double checkpoint_rmse = 0.0;
  int chosen_prefix = 0;
  int chosen_checkpoints = 0;
  std::size_t candidates_considered = 0;
  std::size_t candidates_realistic = 0;
  std::size_t fits_executed = 0;
  std::size_t duplicate_fits_eliminated = 0;
  /// LM point evaluations spent by the fill; accounting only, never
  /// serialised.
  std::size_t levmar_point_evals = 0;

  std::vector<double> predict(const std::vector<int>& cores) const {
    return best.eval_many(cores);
  }
};

// The enumeration level runs under an ExecContext like predict() does,
// but takes its audit sink as its own argument: `audit`, when non-null,
// receives one FitAttempt per (kernel, prefix, start) executed and one
// FitCandidate per (kernel, prefix) slot, emitted in serial context in the
// fixed slot order — so the records are bit-identical at any pool size. A
// context carrying a PredictionAudit (ctx.audit) is rejected with
// std::invalid_argument: that sink belongs to predict().

/// Enumerations whose fit jobs run in one fan-out. add() plans each
/// enumeration (slot layout, memo replay), fill() runs every
/// (enumeration, kernel) job in ONE parallel_for over ctx.pool, heaviest
/// first, and the caller then scores and settles the enumerations one at
/// a time in serial context. Each job writes only its own slots, so the
/// answer is the same at every pool size and in every job order. Not
/// thread-safe: one batch per caller.
class EnumerationBatch {
 public:
  /// Throws std::invalid_argument when ctx carries a PredictionAudit.
  explicit EnumerationBatch(const ExecContext& ctx);
  ~EnumerationBatch();
  EnumerationBatch(const EnumerationBatch&) = delete;
  EnumerationBatch& operator=(const EnumerationBatch&) = delete;

  /// Plans one enumeration of (cores, values) under each realism filter
  /// (1..64 of them, else std::invalid_argument; cfg.realism is ignored)
  /// and returns its index. The filters are copied; cores, values, cfg
  /// and audit must outlive the batch.
  std::size_t add(const std::vector<int>& cores,
                  const std::vector<double>& values,
                  const ExtrapolationConfig& cfg,
                  const std::vector<RealismOptions>& realism_filters,
                  FitAudit* audit = nullptr);

  /// Runs every planned fit job; call once, after the last add(). Jobs
  /// never throw: one that finds the deadline expired or its workspace
  /// allocation failing is counted in its enumeration's stats.
  void fill();

  /// Work accounting of enumeration i, final once fill() returned.
  const EnumerationStats& stats(std::size_t i) const;

  /// Scores enumeration i: emits its audit records, feeds the memo —
  /// unless any job of the fill was cancelled or aborted — and returns one
  /// candidate list per filter in the fixed (checkpoint setting, prefix,
  /// kernel) order: empty lists when i itself was abandoned. Frees i's
  /// slots; call once.
  std::vector<std::vector<CandidateFit>> score(std::size_t i);

  /// Closes enumeration i once its caller chose `winner` among the scored
  /// candidates (null: none). The winner's candidate record becomes
  /// FitOutcome::kWinner, the audit gets the winner scorecard — the
  /// held-out checkpoint cores, the winning fit's scalar predictions there
  /// and the measured values — and ctx.metrics counts every candidate
  /// record of i once, by its final outcome.
  void settle(std::size_t i, const CandidateFit* winner);

  /// score() + the series selection of extrapolate_series + settle().
  /// std::nullopt when no realistic candidate exists.
  std::optional<SeriesExtrapolation> extrapolate(std::size_t i);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Extrapolates one series of (cores, values). Returns std::nullopt when no
/// realistic candidate exists (degenerate input, fewer than min_prefix + 1
/// points, ...). When `stats` is non-null it receives the enumeration's
/// work accounting even on failure — callers that fall back to a constant
/// extension can still report the fits that were executed.
std::optional<SeriesExtrapolation> extrapolate_series(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg, const ExecContext& ctx = {},
    FitAudit* audit = nullptr, EnumerationStats* stats = nullptr);

/// Enumerates every realistic candidate (used by tests and benches; the
/// scaling-factor step selects by correlation rather than checkpoint
/// RMSE). Candidate order is fixed (checkpoint setting, then prefix, then
/// kernel) and identical for every memo / pool combination. Each (kernel,
/// prefix) pair is fitted once and scored under every checkpoint setting
/// whose fitting range contains the prefix. When `stats` is non-null it
/// receives the work accounting of this enumeration.
std::vector<CandidateFit> enumerate_candidates(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg, const ExecContext& ctx = {},
    FitAudit* audit = nullptr, EnumerationStats* stats = nullptr);

/// Enumerates candidates once per realism filter while executing every
/// (kernel, prefix) fit at most once across all filters: a fit depends
/// only on the data, the filters merely gate which fits become candidates,
/// so filter sweeps (predict()'s strict + relaxed scaling-factor realism)
/// share the fit pool and only re-score. Returns one candidate list per
/// filter, element-for-element identical to what enumerate_candidates
/// would return with cfg.realism = realism_filters[v]. cfg.realism itself
/// is ignored. At most 64 filters per call (throws std::invalid_argument).
std::vector<std::vector<CandidateFit>> enumerate_candidates_filtered(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg,
    const std::vector<RealismOptions>& realism_filters,
    const ExecContext& ctx = {}, FitAudit* audit = nullptr,
    EnumerationStats* stats = nullptr);

}  // namespace estima::core
