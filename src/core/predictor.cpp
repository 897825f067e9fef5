#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/fit_audit.hpp"
#include "core/hash.hpp"
#include "numeric/stats.hpp"
#include "obs/trace.hpp"

namespace estima::core {
namespace {

// Constant-function fallback used when a stall category has no realistic
// kernel fit (e.g. an all-zero series): extend the last measured value.
SeriesExtrapolation constant_extension(double value) {
  SeriesExtrapolation out;
  out.best = FittedFunction{KernelType::kCubicLn, {value, 0.0, 0.0, 0.0}, 1.0};
  out.checkpoint_rmse = 0.0;
  out.chosen_prefix = 0;
  out.chosen_checkpoints = 0;
  return out;
}

// True when the minimum of `time` over the compared range sits near the top
// end, i.e. the application keeps scaling across the whole range.
bool scales_to_end(const std::vector<int>& cores,
                   const std::vector<double>& time) {
  if (cores.empty()) return true;
  std::size_t best = 0;
  for (std::size_t i = 1; i < time.size(); ++i) {
    if (time[i] < time[best]) best = i;
  }
  if (cores[best] * 4 >= cores.back() * 3) return true;  // best in top quarter
  // A plateau also counts as scaling: the minimum sits earlier but using
  // the whole machine costs almost nothing extra.
  return time.back() <= 1.12 * time[best];
}

int argmin_cores(const std::vector<int>& cores,
                 const std::vector<double>& time) {
  if (cores.empty()) return 0;
  std::size_t best = 0;
  for (std::size_t i = 1; i < time.size(); ++i) {
    if (time[i] < time[best]) best = i;
  }
  return cores[best];
}

double compute_freq_scale(const MeasurementSet& ms,
                          const PredictionConfig& cfg) {
  if (cfg.target_freq_ghz > 0.0 && ms.freq_ghz > 0.0) {
    return ms.freq_ghz / cfg.target_freq_ghz;
  }
  return 1.0;
}

// The extrapolation horizon reaches at least the largest target core
// count: realism is judged over the whole range the answer covers.
ExtrapolationConfig horizon_extrap(const PredictionConfig& cfg) {
  ExtrapolationConfig e = cfg.extrap;
  if (!cfg.target_cores.empty()) {
    e.target_max_cores = std::max<double>(
        e.target_max_cores,
        *std::max_element(cfg.target_cores.begin(), cfg.target_cores.end()));
  }
  return e;
}

// An enumeration that recorded cancelled or aborted fit jobs returned
// abandoned (empty) candidate lists; surface that as the right exception
// from serial context — never let an abandoned enumeration fall through
// to a fallback path, which would silently change the answer.
void raise_if_abandoned(const EnumerationStats& stats, const char* where) {
  if (stats.fits_cancelled > 0) {
    throw DeadlineExceeded(std::string("predict: deadline expired during ") +
                           where);
  }
  if (stats.fits_aborted > 0) {
    throw std::runtime_error(std::string("predict: fit workspace "
                                         "allocation failed during ") +
                             where);
  }
}

}  // namespace

int Prediction::best_core_count() const { return argmin_cores(cores, time_s); }

Prediction predict(const MeasurementSet& ms, const PredictionConfig& cfg,
                   const ExecContext& ctx) {
  if (ctx.deadline != nullptr && ctx.deadline->expired()) {
    throw DeadlineExceeded("predict: deadline expired before work began");
  }
  ms.validate();
  if (cfg.target_cores.empty()) {
    throw std::invalid_argument("predict: no target core counts");
  }
  // The standard configuration needs 5 points (3-point prefix + 2
  // checkpoints); production campaigns on tiny measurement machines (the
  // paper measures memcached on 3 desktop cores) can run with 3 points and
  // a relaxed ExtrapolationConfig (min_prefix = 2, one checkpoint).
  if (ms.num_points() < 3) {
    throw std::invalid_argument("predict: need at least 3 measurement points");
  }

  MeasurementSet input =
      ms.filtered(cfg.include_frontend, cfg.use_software_stalls);
  if (input.categories.empty()) {
    throw std::invalid_argument("predict: no stall categories selected");
  }

  // Ablation: merge every selected category into one aggregate series.
  if (cfg.aggregate_mode) {
    StallSeries agg;
    agg.name = "aggregate-backend-stalls";
    agg.domain = StallDomain::kHardwareBackend;
    agg.values.assign(input.num_points(), 0.0);
    for (const auto& cat : input.categories) {
      for (std::size_t i = 0; i < cat.values.size(); ++i) {
        agg.values[i] += cat.values[i];
      }
    }
    input.categories = {std::move(agg)};
  }

  const ExtrapolationConfig extrap = horizon_extrap(cfg);
  // The enumerations run under this context minus the PredictionAudit:
  // each gets its own FitAudit slot of it as a separate argument.
  PredictionAudit* const audit = ctx.audit;
  ExecContext fits = ctx;
  fits.audit = nullptr;

  Prediction out;
  out.cores = cfg.target_cores;
  out.freq_scale = compute_freq_scale(ms, cfg);

  // One wall-clock span over the whole fit phase — category
  // extrapolation (B) through the scaling-factor enumeration (C). The
  // nested fit.levmar / fit.realism spans recorded by the jobs inside
  // aggregate worker CPU time within this window.
  obs::SpanTimer enumerate_span(ctx.trace, obs::Stage::kFitEnumerate);

  // Every series of the prediction is planned first and all their fit
  // jobs run in ONE fan-out: (B) each stall category, extrapolated
  // independently, and (C) the scaling factor time(n) = f(n) * spc(n),
  // whose measured values depend only on the input. Scoring and selection
  // then run serially in a fixed order, so the output is bit-identical to
  // a single-threaded run.
  if (audit != nullptr) {
    audit->categories.clear();
    audit->categories.resize(input.categories.size());
    for (std::size_t i = 0; i < input.categories.size(); ++i) {
      audit->categories[i].name = input.categories[i].name;
    }
    audit->factor = FitAudit{};
    audit->factor_used_relaxed = false;
  }
  EnumerationBatch batch(fits);
  for (std::size_t i = 0; i < input.categories.size(); ++i) {
    batch.add(input.cores, input.categories[i].values, extrap, {extrap.realism},
              audit != nullptr ? &audit->categories[i].audit : nullptr);
  }

  // The scaling factor (seconds per stalled-cycle-per-core) varies slowly
  // with n — it never explodes the way stall volumes can. Bound its
  // extrapolation to a small multiple of the measured range so pathological
  // fits cannot win the correlation contest below; fall back to the default
  // (loose) realism before giving up. The two passes differ only in the
  // realism filter, so they score one shared fit execution instead of
  // refitting everything on the retry (auditable via factor_stats).
  const std::vector<double> spc_meas =
      input.stalls_per_core(cfg.include_frontend, cfg.use_software_stalls);
  std::vector<double> factor_meas(input.num_points());
  bool zero_spc = false;
  for (std::size_t i = 0; i < input.num_points(); ++i) {
    if (spc_meas[i] <= 0.0) {
      zero_spc = true;
      break;
    }
    factor_meas[i] = input.time_s[i] * out.freq_scale / spc_meas[i];
  }
  RealismOptions strict_realism = extrap.realism;
  strict_realism.explosion_factor = 5.0;
  const std::vector<RealismOptions> factor_filters = {strict_realism,
                                                      extrap.realism};
  const std::size_t factor =
      zero_spc ? 0
               : batch.add(input.cores, factor_meas, extrap, factor_filters,
                           audit != nullptr ? &audit->factor : nullptr);
  batch.fill();

  // A category whose enumeration was abandoned mid-way reads as "no
  // realistic fit" — indistinguishable from a legitimately unfittable
  // series — so the abandonment check must run before the
  // constant-extension fallback below can capture it.
  for (std::size_t i = 0; i < input.categories.size(); ++i) {
    raise_if_abandoned(batch.stats(i), "category extrapolation");
  }
  if (zero_spc) {
    throw std::invalid_argument(
        "predict: zero stalls-per-core at a measured point");
  }
  out.factor_stats = batch.stats(factor);
  raise_if_abandoned(out.factor_stats, "scaling-factor enumeration");

  // (B) Weak scaling multiplies the extrapolated stall volume by the
  // dataset factor. Each category's candidates are selected and dropped
  // before the next is scored.
  out.categories.reserve(input.categories.size());
  for (std::size_t i = 0; i < input.categories.size(); ++i) {
    const auto& cat = input.categories[i];
    CategoryPrediction cp;
    cp.name = cat.name;
    cp.domain = cat.domain;
    if (auto ext = batch.extrapolate(i)) {
      cp.extrapolation = std::move(*ext);
    } else {
      cp.extrapolation = constant_extension(cat.values.back());
      // The enumeration still ran; keep its work accounting visible.
      const EnumerationStats& st = batch.stats(i);
      cp.extrapolation.candidates_considered = st.candidates_attempted;
      cp.extrapolation.fits_executed = st.fits_executed;
      cp.extrapolation.duplicate_fits_eliminated = st.duplicate_fits_eliminated;
    }
    cp.values = cp.extrapolation.predict(cfg.target_cores);
    for (double& v : cp.values) v *= cfg.dataset_scale;
    out.categories.push_back(std::move(cp));
  }

  // Total stalled cycles per core at the target core counts.
  out.stalls_per_core.assign(cfg.target_cores.size(), 0.0);
  for (std::size_t i = 0; i < cfg.target_cores.size(); ++i) {
    double total = 0.0;
    for (const auto& cp : out.categories) total += cp.values[i];
    out.stalls_per_core[i] = total / static_cast<double>(cfg.target_cores[i]);
  }

  // (C) Choose the factor fit whose induced prediction correlates best
  // with stalls-per-core (Section 3.1.3).
  auto factor_passes = batch.score(factor);
  enumerate_span.stop();
  out.factor_used_relaxed_realism = factor_passes[0].empty();
  if (audit != nullptr) {
    audit->factor_used_relaxed = out.factor_used_relaxed_realism;
  }
  std::vector<CandidateFit> factor_candidates = std::move(
      out.factor_used_relaxed_realism ? factor_passes[1] : factor_passes[0]);
  if (factor_candidates.empty()) {
    batch.settle(factor, nullptr);
    throw std::invalid_argument(
        "predict: no realistic scaling-factor fit found");
  }

  // Candidates are fits of the measured factor values; before ranking by
  // correlation, drop those that misfit the checkpoints by far more than
  // the best candidate does (they only ever win by coincidence).
  {
    double best_rmse = std::numeric_limits<double>::infinity();
    for (const auto& cand : factor_candidates) {
      best_rmse = std::min(best_rmse, cand.checkpoint_rmse);
    }
    const double cutoff = std::max(best_rmse * 20.0, best_rmse + 1e-30);
    std::vector<CandidateFit> kept;
    for (auto& cand : factor_candidates) {
      if (cand.checkpoint_rmse <= cutoff) kept.push_back(std::move(cand));
    }
    factor_candidates = std::move(kept);
  }

  // Rank candidates by the correlation of the induced time prediction with
  // stalls-per-core (Section 3.1.3). Correlation alone cannot distinguish
  // between fits within noise of each other, so among candidates whose
  // correlation is within a small band of the best we keep the one that
  // fits the factor checkpoints most faithfully.
  struct ScoredCandidate {
    const CandidateFit* cand;
    double corr;
  };
  std::vector<ScoredCandidate> scored;
  for (const auto& cand : factor_candidates) {
    std::vector<double> time_pred(cfg.target_cores.size());
    bool ok = true;
    for (std::size_t i = 0; i < cfg.target_cores.size(); ++i) {
      const double f = cand.fn(static_cast<double>(cfg.target_cores[i]));
      const double t = f * out.stalls_per_core[i];
      if (!std::isfinite(t) || t <= 0.0) {
        ok = false;
        break;
      }
      time_pred[i] = t;
    }
    if (!ok) continue;
    scored.push_back(
        {&cand, numeric::pearson(time_pred, out.stalls_per_core)});
  }
  if (scored.empty()) {
    batch.settle(factor, nullptr);
    throw std::invalid_argument(
        "predict: every scaling-factor candidate produced degenerate times");
  }
  double best_corr = -2.0;
  for (const auto& s : scored) best_corr = std::max(best_corr, s.corr);
  constexpr double kCorrBand = 0.01;
  const CandidateFit* chosen = nullptr;
  double chosen_corr = -2.0;
  for (const auto& s : scored) {
    if (s.corr + kCorrBand < best_corr) continue;
    if (!chosen || s.cand->checkpoint_rmse < chosen->checkpoint_rmse) {
      chosen = s.cand;
      chosen_corr = s.corr;
    }
  }

  out.factor_fn = chosen->fn;
  out.factor_correlation = chosen_corr;
  // The factor winner is chosen here (by correlation), not inside the
  // enumeration, so the winner upgrade happens here too.
  batch.settle(factor, chosen);

  // The factor (seconds per stalled-cycle-per-core) is a slowly varying
  // link between two quantities that already carry the scaling trend, so
  // its extrapolation is clamped to a modest envelope around the measured
  // range: tail swings of the fitted function must not multiply the stall
  // extrapolation's own trend.
  double fmin = factor_meas[0], fmax = factor_meas[0];
  for (double f : factor_meas) {
    fmin = std::min(fmin, f);
    fmax = std::max(fmax, f);
  }
  const double f_lo = 0.5 * fmin;
  const double f_hi = 1.5 * fmax;

  out.time_s.resize(cfg.target_cores.size());
  for (std::size_t i = 0; i < cfg.target_cores.size(); ++i) {
    const double f = std::clamp(
        out.factor_fn(static_cast<double>(cfg.target_cores[i])), f_lo, f_hi);
    out.time_s[i] = f * out.stalls_per_core[i];
  }
  return out;
}

Prediction predict_time_extrapolation(const MeasurementSet& ms,
                                      const PredictionConfig& cfg,
                                      const ExecContext& ctx) {
  ms.validate();
  if (cfg.target_cores.empty()) {
    throw std::invalid_argument("time extrapolation: no target core counts");
  }
  const ExtrapolationConfig extrap = horizon_extrap(cfg);

  Prediction out;
  out.cores = cfg.target_cores;
  out.freq_scale = compute_freq_scale(ms, cfg);

  std::vector<double> scaled_time(ms.time_s);
  for (double& t : scaled_time) t *= out.freq_scale;

  EnumerationStats time_stats;
  auto ext =
      extrapolate_series(ms.cores, scaled_time, extrap, ctx, nullptr,
                         &time_stats);
  raise_if_abandoned(time_stats, "time extrapolation");
  if (!ext) {
    throw std::invalid_argument(
        "time extrapolation: no realistic fit for the time series");
  }
  out.factor_fn = ext->best;
  out.time_s = ext->predict(cfg.target_cores);
  for (double& t : out.time_s) t *= cfg.dataset_scale;
  out.stalls_per_core.assign(cfg.target_cores.size(), 0.0);
  return out;
}

PredictionError evaluate_prediction(const Prediction& pred,
                                    const MeasurementSet& truth,
                                    int skip_below_cores) {
  PredictionError err;
  std::vector<int> common_cores;
  std::vector<double> p, t;
  for (std::size_t i = 0; i < pred.cores.size(); ++i) {
    if (pred.cores[i] < skip_below_cores) continue;
    for (std::size_t j = 0; j < truth.cores.size(); ++j) {
      if (truth.cores[j] == pred.cores[i]) {
        common_cores.push_back(pred.cores[i]);
        p.push_back(pred.time_s[i]);
        t.push_back(truth.time_s[j]);
        break;
      }
    }
  }
  err.compared_points = static_cast<int>(common_cores.size());
  if (common_cores.empty()) return err;

  err.max_pct = numeric::max_relative_error_pct(p, t);
  err.mean_pct = numeric::mean_relative_error_pct(p, t);
  err.predicted_best_cores = argmin_cores(common_cores, p);
  err.actual_best_cores = argmin_cores(common_cores, t);
  // The paper's robustness claim has two parts: ESTIMA never predicts that
  // an application scales when it does not (and vice versa), and it
  // identifies the core count where scaling stops. We count the verdict as
  // matching when the scale/no-scale classification agrees, or when both
  // stop and the predicted stop point is within a quarter of the range of
  // the actual one (identifying "roughly where" scaling stops).
  const bool same_class =
      scales_to_end(common_cores, p) == scales_to_end(common_cores, t);
  const int range = common_cores.back();
  const bool close_stop =
      4 * std::abs(err.predicted_best_cores - err.actual_best_cores) <= range;
  err.scaling_verdict_match = same_class || close_stop;
  return err;
}

// Hashes every field of the config, in declaration order; a field added
// to PredictionConfig or ExtrapolationConfig must be hashed here. The work
// accounting of a Prediction (factor_stats, the per-category
// fits_executed / duplicate_fits_eliminated) describes the run that
// computed it, not the campaign, and stays outside the identity contract.
std::uint64_t config_signature(const PredictionConfig& cfg) {
  Fnv1a h;
  h.u64(cfg.target_cores.size());
  for (int c : cfg.target_cores) h.i64(c);
  h.f64(cfg.target_freq_ghz);
  h.f64(cfg.dataset_scale);
  h.boolean(cfg.use_software_stalls);
  h.boolean(cfg.include_frontend);
  h.boolean(cfg.aggregate_mode);
  const ExtrapolationConfig& e = cfg.extrap;
  h.u64(e.checkpoint_counts.size());
  for (int c : e.checkpoint_counts) h.i64(c);
  h.i64(e.min_prefix);
  h.f64(e.target_max_cores);
  h.f64(e.realism.range_min);
  h.f64(e.realism.range_max);
  h.f64(e.realism.explosion_factor);
  h.boolean(e.realism.require_nonnegative);
  h.f64(e.realism.negativity_slack);
  h.i64(e.realism.max_steps);
  h.f64(e.fit.ridge_lambda);
  h.i64(e.fit.levmar_max_iterations);
  return h.value();
}

std::vector<int> cores_up_to(int max_cores) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(std::max(max_cores, 0)));
  for (int i = 1; i <= max_cores; ++i) out.push_back(i);
  return out;
}

}  // namespace estima::core
