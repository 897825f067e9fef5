#include "core/fit_audit.hpp"

#include <cmath>

#include "obs/histogram.hpp"

namespace estima::core {

const char* fit_outcome_name(FitOutcome o) {
  switch (o) {
    case FitOutcome::kConverged: return "converged";
    case FitOutcome::kMaxIter: return "max-iter";
    case FitOutcome::kNoProgress: return "no-progress";
    case FitOutcome::kCholeskyFail: return "cholesky-fail";
    case FitOutcome::kNudgeExhausted: return "nudge-exhausted";
    case FitOutcome::kNoFit: return "no-fit";
    case FitOutcome::kUnrealisticStrict: return "unrealistic-strict";
    case FitOutcome::kUnrealisticRelaxed: return "unrealistic-relaxed";
    case FitOutcome::kWorseRmse: return "worse-rmse";
    case FitOutcome::kWinner: return "winner";
    case FitOutcome::kCancelled: return "cancelled";
  }
  return "unknown";
}

FitOutcome fit_outcome_from_term(numeric::LevMarTermination t) {
  switch (t) {
    case numeric::LevMarTermination::kConverged: return FitOutcome::kConverged;
    case numeric::LevMarTermination::kMaxIterations: return FitOutcome::kMaxIter;
    case numeric::LevMarTermination::kNoProgress: return FitOutcome::kNoProgress;
    case numeric::LevMarTermination::kCholeskyFail:
      return FitOutcome::kCholeskyFail;
    case numeric::LevMarTermination::kNudgeExhausted:
      return FitOutcome::kNudgeExhausted;
    case numeric::LevMarTermination::kNonFinite: return FitOutcome::kNoFit;
    case numeric::LevMarTermination::kNone: return FitOutcome::kNoFit;
  }
  return FitOutcome::kNoFit;
}

void FitMetrics::init(obs::Registry& reg) {
  for (std::size_t k = 0; k < kKernels; ++k) {
    const std::string kname = kernel_name(kAllKernels[k]);
    for (std::size_t o = 0; o < kFitOutcomeCount; ++o) {
      attempts[k][o] = reg.counter(
          "estima_fit_attempts_total",
          "kernel=\"" + kname + "\",outcome=\"" +
              fit_outcome_name(static_cast<FitOutcome>(o)) + "\"",
          "Fit attempts and candidate scorings by kernel and outcome");
    }
    fit_seconds[k] = reg.histogram(
        "estima_fit_seconds", "kernel=\"" + kname + "\"",
        "Wall time of one fit job (every prefix of one kernel that the "
        "memo did not answer) by kernel");
  }
}

void FitMetrics::count(KernelType kernel, FitOutcome outcome,
                       std::uint64_t n) {
  if (n == 0) return;
  for (std::size_t k = 0; k < kKernels; ++k) {
    if (kAllKernels[k] == kernel) {
      obs::Counter* c = attempts[k][static_cast<std::size_t>(outcome)];
      if (c != nullptr) c->add(n);
      return;
    }
  }
}

void FitMetrics::record_fit_seconds(KernelType kernel, double seconds) {
  if (!(seconds >= 0.0) || !std::isfinite(seconds)) return;
  for (std::size_t k = 0; k < kKernels; ++k) {
    if (kAllKernels[k] == kernel) {
      obs::Histogram* h = fit_seconds[k];
      if (h != nullptr) {
        h->record(static_cast<std::uint64_t>(seconds * 1e9));
      }
      return;
    }
  }
}

}  // namespace estima::core
