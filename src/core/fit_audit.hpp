// Fit provenance: why each (kernel, prefix, start) attempt ended the way
// it did, which candidates survived realism and scoring, and which one
// won. The audit sink rides in the ExecContext exactly like `trace` and
// `deadline`: an opt-in pointer that cannot change produced values, kept
// out of the config that config_signature hashes. The records are emitted
// after the fill, from the per-slot data in the fixed serial slot order, so
// for a given input the audit is byte-identical at any pool size and
// between the library's fill and the scalar oracle's (tests/oracle/) — the
// golden-corpus bit-identity rule extends to audits.
//
// Per-kernel fit metrics (estima_fit_attempts_total{kernel,outcome},
// estima_fit_candidates_total{kernel,outcome}, estima_fit_seconds{kernel})
// piggyback on the same records; wall-clock timing deliberately lives only
// in the metrics, never in the audit, because audits are
// bit-identity-checked and clocks are not.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "numeric/levmar.hpp"

namespace estima::obs {
class Registry;
class Counter;
class Histogram;
}  // namespace estima::obs

namespace estima::core {

struct FitDiag;

/// Final disposition of one fit attempt or candidate. The first block
/// mirrors LevMarTermination (attempt level; kNoFit also ends a direct
/// solve that produced nothing); the second block is candidate level (how
/// the enumeration scored the fit, kNoFit for a slot holding no fit);
/// kCancelled counts fits of abandoned jobs.
enum class FitOutcome : std::uint8_t {
  kConverged = 0,      ///< LM stopped on a tolerance
  kMaxIter,            ///< LM iteration budget exhausted
  kNoProgress,         ///< LM damping exhausted on rejected steps
  kCholeskyFail,       ///< LM damping exhausted on singular systems
  kNudgeExhausted,     ///< LM never found a finite start
  kNoFit,              ///< no fitted function produced (guard/degenerate)
  kUnrealisticStrict,  ///< rejected by the strict realism filter
  kUnrealisticRelaxed, ///< rejected even by the relaxed realism filter
  kWorseRmse,          ///< realistic but lost the checkpoint-RMSE contest
  kWinner,             ///< the candidate the prediction used
  kCancelled,          ///< enumeration abandoned (deadline/abort)
};
inline constexpr std::size_t kFitOutcomeCount = 11;

const char* fit_outcome_name(FitOutcome o);

/// Attempt-level outcome from an LM termination reason.
FitOutcome fit_outcome_from_term(numeric::LevMarTermination t);

/// One fitting attempt: a single LM start of a nonlinear kernel, or the
/// single direct solve (start == -1) of a linear/trivial/guarded fit.
struct FitAttempt {
  KernelType kernel = KernelType::kCubicLn;
  int prefix_len = 0;
  int start = -1;  ///< LM start index; -1 = direct solve / guard / trivial
  FitOutcome outcome = FitOutcome::kNoFit;
  double rmse = std::numeric_limits<double>::quiet_NaN();  ///< scaled space
  int iterations = 0;
  std::uint64_t model_evals = 0;
};

/// One enumerated (kernel, prefix) candidate and how it was scored.
struct FitCandidate {
  KernelType kernel = KernelType::kCubicLn;
  int prefix_len = 0;
  /// Always 0: one (kernel, prefix) fit is scored across every applicable
  /// checkpoint setting, so no single setting owns the candidate. Kept
  /// because /v1/explain serves the key.
  int checkpoints = 0;
  FitOutcome outcome = FitOutcome::kNoFit;
  std::uint64_t realistic_mask = 0;  ///< bit v = passed realism filter v
  /// Best checkpoint RMSE across the checkpoint settings that scored this
  /// candidate; NaN when the candidate never reached scoring.
  double checkpoint_rmse = std::numeric_limits<double>::quiet_NaN();
};

/// The audit of one series enumeration: every attempt, every candidate,
/// and the winner's checkpoint scorecard. Records are appended in the
/// fixed serial slot order (prefix, then kernel), never concurrently.
struct FitAudit {
  std::vector<FitAttempt> attempts;
  std::vector<FitCandidate> candidates;

  bool has_winner = false;
  KernelType winner_kernel = KernelType::kCubicLn;
  int winner_prefix = 0;
  int winner_checkpoints = 0;
  double winner_rmse = std::numeric_limits<double>::quiet_NaN();
  /// The winner's held-out checkpoints: measured core counts, the
  /// winning fit's predictions there, and the measured values.
  std::vector<int> checkpoint_cores;
  std::vector<double> checkpoint_predicted;
  std::vector<double> checkpoint_actual;

  /// Nonzero when the enumeration was abandoned (expired deadline /
  /// allocation failure): no per-slot records were emitted, because a
  /// partial enumeration is never scored. Outside the bit-identity
  /// contract, like the EnumerationStats fields they mirror.
  std::size_t fits_cancelled = 0;
  std::size_t fits_aborted = 0;
};

/// The audit of one full predict(): one FitAudit per stall category plus
/// the scaling-factor enumeration's audit. predict() hands each
/// enumeration its own sink.
struct PredictionAudit {
  struct Category {
    std::string name;
    FitAudit audit;
  };
  std::vector<Category> categories;
  FitAudit factor;
  bool factor_used_relaxed = false;
};

/// Registry-backed per-kernel fit metrics, shared by every enumeration of
/// a process (Counter/Histogram recording is lock-free). Outcome counts
/// piggyback on the audit records, one family per record kind:
///   * estima_fit_attempts_total{kernel,outcome} counts the FitAttempt
///     outcomes (converged, max-iter, no-progress, cholesky-fail,
///     nudge-exhausted, no-fit) of executed fits and the fits of
///     cancelled jobs;
///   * estima_fit_candidates_total{kernel,outcome} counts each scored
///     candidate once, by its final FitCandidate outcome (no-fit,
///     unrealistic-strict, unrealistic-relaxed, worse-rmse, winner).
/// Fit wall time is recorded by the fill per fit job and is deliberately
/// absent from FitAudit.
struct FitMetrics {
  static constexpr std::size_t kKernels = kAllKernels.size();
  /// Indexed by FitOutcome; null where the family has no such series.
  obs::Counter* attempts[kKernels][kFitOutcomeCount] = {};
  obs::Counter* candidates[kKernels][kFitOutcomeCount] = {};
  obs::Histogram* fit_seconds[kKernels] = {};

  /// Registers (or re-finds) every family in `reg`. Call once at startup.
  void init(obs::Registry& reg);

  /// An attempt outcome (or kCancelled) into estima_fit_attempts_total.
  void count(KernelType kernel, FitOutcome outcome, std::uint64_t n = 1);
  /// The attempts of one executed fit, by the rule the audit's FitAttempt
  /// records follow: one per LM start, else one direct solve (converged
  /// when it produced a fit, no-fit otherwise). Fill jobs call it as they
  /// fit; a memo replay executes no attempt and counts none.
  void count_attempts(KernelType kernel, const FitDiag& diag);
  /// A candidate outcome into estima_fit_candidates_total.
  void count_candidate(KernelType kernel, FitOutcome outcome,
                       std::uint64_t n = 1);
  void record_fit_seconds(KernelType kernel, double seconds);
};

}  // namespace estima::core
