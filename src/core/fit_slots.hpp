// The fill contract of the candidate enumeration (extrapolator.cpp).
//
// An EnumerationBatch runs every enumeration it holds in three phases: the
// plan lays out, per enumeration, one slot per (kernel, prefix) pair, s =
// (prefix - min_prefix) * K + kernel, and replays the FitMemo; the fill
// runs one job per (enumeration, kernel) — every enumeration's jobs in ONE
// fan-out, heaviest first; the score phase audits, assembles the
// candidates and feeds the memo, serially and in a fixed order. Only the
// fill job differs between implementations: the library has one, and
// ExecContext::engine can name another (the scalar oracle in
// tests/oracle/), which must write bit-identical slots.
//
// A job (FitFillFn) receives one FitSlots and one kernel index k: it fits
// the slots s = k, k + K, k + 2K, ... that the memo did not answer, runs
// the realism filters and predicts. It writes only those slots, so the
// jobs of one enumeration run concurrently without sharing a byte. The
// fan-out around it, not the job, polls the deadline, injects the
// workspace-allocation fault and catches std::bad_alloc.
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
  /// The EvalTables of xs, of its checkpoint window xs[pred_lo..] and,
  /// per filter, its realism walk grid. Built once per batch and shared by
  /// every enumeration with the same cores and range; filters with equal
  /// grids point at one grid.
  const EvalTables* tables = nullptr;
  const EvalTables* pred_tables = nullptr;
  std::vector<const RealismGrid*> grids;
  /// First measured point any checkpoint setting holds out: scoring reads
  /// predictions at xs[pred_lo..] only.
  std::size_t pred_lo = 0;
  double vmax = 0.0;                        ///< max |value|
  bool nonneg = false;                      ///< every value >= 0
  int min_prefix = 0;
  std::size_t n_slots = 0;
  std::vector<char> replayed;  ///< 1 = the memo answered the slot

  // Per-slot results. A job writes fits[s] (nullopt = the fit failed) and,
  // when diags is non-empty, diags[s] for every slot of its kernel not
  // replayed; with ctx.metrics set it counts each executed fit's attempts
  // (FitMetrics::count_attempts). For every slot holding a fit it sets bit
  // v of realistic[s] when filters[v] accepts the fit, and when any bit is
  // set, fills the prediction row pred(s)[j] = fit(xs[pred_lo + j]).
  std::vector<std::optional<FittedFunction>> fits;
  std::vector<std::uint64_t> realistic;
  /// n_slots rows of pred_width() predictions, one flat array.
  std::vector<double> preds;
  /// Empty unless an audit or the memo reads it.
  std::vector<FitDiag> diags;

  KernelType kernel_of(std::size_t s) const { return kAllKernels[s % K]; }
  int prefix_of(std::size_t s) const {
    return min_prefix + static_cast<int>(s / K);
  }
  std::size_t pred_width() const { return xs.size() - pred_lo; }
  double* pred(std::size_t s) { return preds.data() + s * pred_width(); }
  const double* pred(std::size_t s) const {
    return preds.data() + s * pred_width();
  }
};

}  // namespace estima::core
