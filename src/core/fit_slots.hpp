// The fill contract of the candidate enumeration (extrapolator.cpp).
//
// enumerate_candidates_filtered runs in three phases: the plan lays out
// one slot per (kernel, prefix) pair, s = (prefix - min_prefix) * K +
// kernel, and replays the FitMemo; the fill fits, realism-checks and
// predicts the slots; the score phase audits, assembles the candidates and
// feeds the memo. Only the fill differs between implementations: the
// library has one, and ExecContext::engine can name another (the scalar
// oracle in tests/oracle/), which must write bit-identical slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/fit_engine.hpp"
#include "core/kernels.hpp"

namespace estima::core {

struct FitSlots {
  static constexpr std::size_t K = kAllKernels.size();

  // Inputs, fixed by the plan.
  std::vector<double> xs;                   ///< measured core counts
  const std::vector<double>* values = nullptr;  ///< the series (xs.size())
  const FitOptions* fit = nullptr;
  std::vector<RealismOptions> filters;      ///< ranges set to the horizon
  double vmax = 0.0;                        ///< max |value|
  bool nonneg = false;                      ///< every value >= 0
  int min_prefix = 0;
  std::size_t n_slots = 0;
  std::vector<char> replayed;  ///< 1 = the memo answered the slot

  // Per-slot results. A fill writes fits[s] (nullopt = the fit failed) and,
  // when diags is non-empty, diags[s] for every slot not replayed. For
  // every slot holding a fit it sets bit v of realistic[s] when filters[v]
  // accepts the fit, and when any bit is set, preds[s][j] = fit(xs[j]).
  std::vector<std::optional<FittedFunction>> fits;
  std::vector<std::uint64_t> realistic;
  std::vector<std::vector<double>> preds;
  /// Empty unless an audit, metrics or the memo reads it.
  std::vector<FitDiag> diags;

  // Fill accounting, in fits. A job that sees the deadline expired or an
  // allocation fail counts its slots here; any nonzero count abandons the
  // enumeration, whatever the slots hold.
  std::size_t fits_cancelled = 0;
  std::size_t fits_aborted = 0;
  std::size_t levmar_point_evals = 0;  ///< optional; the oracle leaves 0

  KernelType kernel_of(std::size_t s) const { return kAllKernels[s % K]; }
  int prefix_of(std::size_t s) const {
    return min_prefix + static_cast<int>(s / K);
  }
};

}  // namespace estima::core
