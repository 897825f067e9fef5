#include "core/fit_audit.hpp"

#include <cmath>
#include <string>

#include "core/fit_engine.hpp"
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

namespace {

bool is_attempt_outcome(FitOutcome o) {
  return o <= FitOutcome::kNoFit || o == FitOutcome::kCancelled;
}

bool is_candidate_outcome(FitOutcome o) {
  return o >= FitOutcome::kNoFit && o <= FitOutcome::kWinner;
}

void add(obs::Counter* const (&family)[FitMetrics::kKernels][kFitOutcomeCount],
         KernelType kernel, FitOutcome outcome, std::uint64_t n) {
  if (n == 0) return;
  for (std::size_t k = 0; k < FitMetrics::kKernels; ++k) {
    if (kAllKernels[k] == kernel) {
      obs::Counter* c = family[k][static_cast<std::size_t>(outcome)];
      if (c != nullptr) c->add(n);
      return;
    }
  }
}

}  // namespace

void FitMetrics::init(obs::Registry& reg) {
  // One family at a time: the exposition keeps a family's series together.
  const auto labels = [](std::size_t k, std::size_t o) {
    return "kernel=\"" + kernel_name(kAllKernels[k]) + "\",outcome=\"" +
           fit_outcome_name(static_cast<FitOutcome>(o)) + "\"";
  };
  for (std::size_t k = 0; k < kKernels; ++k) {
    for (std::size_t o = 0; o < kFitOutcomeCount; ++o) {
      if (!is_attempt_outcome(static_cast<FitOutcome>(o))) continue;
      attempts[k][o] = reg.counter(
          "estima_fit_attempts_total", labels(k, o),
          "Fit attempts (LM starts and direct solves) by kernel and "
          "outcome, plus the fits of cancelled jobs");
    }
  }
  for (std::size_t k = 0; k < kKernels; ++k) {
    for (std::size_t o = 0; o < kFitOutcomeCount; ++o) {
      if (!is_candidate_outcome(static_cast<FitOutcome>(o))) continue;
      candidates[k][o] = reg.counter(
          "estima_fit_candidates_total", labels(k, o),
          "Scored (kernel, prefix) candidates by kernel and final outcome");
    }
  }
  for (std::size_t k = 0; k < kKernels; ++k) {
    fit_seconds[k] = reg.histogram(
        "estima_fit_seconds",
        "kernel=\"" + kernel_name(kAllKernels[k]) + "\"",
        "Wall time of one fit job (every prefix of one kernel that the "
        "memo did not answer) by kernel");
  }
}

void FitMetrics::count(KernelType kernel, FitOutcome outcome,
                       std::uint64_t n) {
  add(attempts, kernel, outcome, n);
}

void FitMetrics::count_attempts(KernelType kernel, const FitDiag& diag) {
  if (diag.path == FitDiag::Path::kNonlinear && !diag.starts.empty()) {
    for (const FitDiag::Start& st : diag.starts) {
      count(kernel, fit_outcome_from_term(st.term));
    }
  } else {
    count(kernel, diag.solved ? FitOutcome::kConverged : FitOutcome::kNoFit);
  }
}

void FitMetrics::count_candidate(KernelType kernel, FitOutcome outcome,
                                 std::uint64_t n) {
  add(candidates, kernel, outcome, n);
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
