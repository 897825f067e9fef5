// The full ESTIMA prediction pipeline (Figure 3):
//   (A) collect  — a MeasurementSet from counters/simulator/CSV;
//   (B) extrapolate — every stall category independently (extrapolator);
//   (C) translate — stalls-per-core -> execution time via the scaling
//       factor, whose fit is chosen by *correlation* of the induced time
//       prediction with stalls-per-core (Section 3.1.3).
//
// Also implements the paper's baselines and modes:
//   * time extrapolation (Section 2.4 / Figure 1);
//   * aggregate-stall mode (Section 2.5 ablation);
//   * weak scaling via dataset_scale (Section 4.5);
//   * cross-machine frequency scaling (Section 4.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "core/measurement.hpp"

namespace estima::core {

/// What a prediction answers: every field here can change the result, and
/// config_signature hashes all of them. How the prediction is executed
/// (pool, deadline, trace, audit, metrics, memo) is an ExecContext,
/// passed beside the config.
struct PredictionConfig {
  std::vector<int> target_cores;    ///< core counts to predict for
  double target_freq_ghz = 0.0;     ///< 0 => same frequency as measurement
  double dataset_scale = 1.0;       ///< weak scaling factor (Section 4.5)
  bool use_software_stalls = true;  ///< include StallDomain::kSoftware
  bool include_frontend = false;    ///< Table 6 ablation
  bool aggregate_mode = false;      ///< Section 2.5 ablation: one merged series
  ExtrapolationConfig extrap;
};

/// Per-category extrapolation detail exposed for diagnostics and benches.
struct CategoryPrediction {
  std::string name;
  StallDomain domain = StallDomain::kHardwareBackend;
  SeriesExtrapolation extrapolation;
  std::vector<double> values;  ///< extrapolated totals at target_cores
};

struct Prediction {
  std::vector<int> cores;
  std::vector<double> time_s;           ///< predicted execution time
  std::vector<double> stalls_per_core;  ///< Σ categories / n at target cores
  std::vector<CategoryPrediction> categories;
  FittedFunction factor_fn;          ///< fitted scaling-factor function
  double factor_correlation = 0.0;   ///< corr(time prediction, spc)
  double freq_scale = 1.0;           ///< applied measured-time multiplier
  /// Work accounting of the scaling-factor enumeration. The strict and
  /// relaxed realism passes share one fit execution (realism_variants = 2,
  /// variant_refits_avoided = the refits the old retry would have run).
  EnumerationStats factor_stats;
  /// True when the strict factor realism pass produced no candidate and
  /// the relaxed pass was used instead.
  bool factor_used_relaxed_realism = false;

  /// Core count with the best (lowest) predicted time.
  int best_core_count() const;
};

/// Runs the ESTIMA pipeline. Throws std::invalid_argument on malformed
/// input (too few points, missing categories, no realistic fits).
///
/// The answer is a function of (ms, cfg) alone; `ctx` only says how it is
/// executed, and a prediction that returns is byte-identical for every
/// context:
///   * ctx.pool runs the prediction's fit jobs — one per (series, kernel)
///     over every stall category and the scaling factor — in one
///     parallel_for, heaviest first;
///   * ctx.deadline is polled before each fit job — once it expires the
///     remaining jobs are skipped and predict throws DeadlineExceeded;
///   * ctx.trace receives a `fit.enumerate` wall span over the
///     extrapolation + scaling-factor phases and, inside the fit jobs,
///     nested `fit.levmar` / `fit.realism` spans;
///   * ctx.audit receives one FitAudit per stall category plus the
///     scaling-factor enumeration's audit with its winner scorecard,
///     collected in serial slot order so it too is bit-identical across
///     pool sizes;
///   * ctx.metrics counts fit attempt and candidate outcomes and fit time
///     per kernel;
///   * ctx.memo replays fits whose exact input it already holds and keeps
///     the executed ones (none when any fit job was abandoned) — the
///     streaming-campaign path threads a per-campaign memo here so an
///     append-then-repredict executes only the fits the new point
///     created;
///   * ctx.engine is the test seam that swaps in another fill (the scalar
///     oracle); null, the library's one engine, everywhere else.
Prediction predict(const MeasurementSet& ms, const PredictionConfig& cfg,
                   const ExecContext& ctx = {});

/// Stable 64-bit FNV-1a signature over the whole config: every field of a
/// PredictionConfig can change a prediction's numeric result, and nothing
/// else can. The serving layer combines this with a measurement digest
/// into campaign-hash cache keys, so results are shared across every
/// ExecContext.
std::uint64_t config_signature(const PredictionConfig& cfg);

/// Baseline: extrapolates execution time directly using the same kernel and
/// checkpoint machinery (Section 2.4).
/// `ctx` as for predict(), except that a PredictionAudit has nothing to
/// describe here: a context carrying one is rejected with
/// std::invalid_argument.
Prediction predict_time_extrapolation(const MeasurementSet& ms,
                                      const PredictionConfig& cfg,
                                      const ExecContext& ctx = {});

/// Error metrics of a prediction against ground-truth measurements of the
/// target machine. Only core counts present in both are compared.
struct PredictionError {
  double max_pct = 0.0;   ///< maximum relative error (the paper's Table 4)
  double mean_pct = 0.0;
  int compared_points = 0;
  /// True when the prediction and the truth agree on whether the workload
  /// keeps scaling past the measurement range: both improve, or both stop.
  bool scaling_verdict_match = true;
  int predicted_best_cores = 0;
  int actual_best_cores = 0;
};

PredictionError evaluate_prediction(const Prediction& pred,
                                    const MeasurementSet& truth,
                                    int skip_below_cores = 0);

/// Convenience: target core list {1, 2, ..., max}.
std::vector<int> cores_up_to(int max_cores);

}  // namespace estima::core
