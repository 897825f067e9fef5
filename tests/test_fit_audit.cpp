// Fit provenance under the bit-identity contract. The audit sink is an
// opt-in observer like `trace` and `deadline`: it must never change the
// prediction, and the records themselves must be byte-identical across
// {scalar oracle, library engine} x {serial, pooled} — the golden-corpus rule
// extends to audits (ROADMAP PR 9). On top of that:
//
//   * the audit must describe the served answer: each series' winner
//     record equals the kernel/prefix/rmse the prediction actually used,
//     and exactly one candidate per decided series carries kWinner;
//   * attaching an audit or FitMetrics must not move config_signature
//     (a warm snapshot stays loadable when observability is toggled);
//   * FitMetrics piggybacks on the same records: per-kernel attempt and
//     candidate counters (one family each, the winner among the
//     candidates) and fit-seconds histograms fill in, and the rendered
//     registry still passes the Prometheus validator.
#include "core/fit_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "core/extrapolator.hpp"
#include "core/fit_engine.hpp"
#include "core/fit_memo.hpp"
#include "core/predictor.hpp"
#include "obs/histogram.hpp"
#include "obs/prometheus.hpp"
#include "oracle/scalar_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "service/campaign_hash.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::core {
namespace {

using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

MeasurementSet campaign(double mem_rate = 0.3, double noise = 0.02) {
  SyntheticSpec spec;
  spec.mem_rate = mem_rate;
  spec.noise = noise;
  return make_synthetic(spec, counts_up_to(16), "audit-campaign");
}

PredictionConfig base_config() {
  PredictionConfig cfg;
  cfg.target_cores = cores_up_to(32);
  return cfg;
}

void fp_double(std::string& out, double v) {
  // %a is exact per bit pattern (all NaNs print "nan", but the engines
  // produce NaN only as the untouched sentinel, never computed).
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a;", v);
  out += buf;
}

std::string fingerprint(const FitAudit& a) {
  std::string out;
  for (const auto& at : a.attempts) {
    out += kernel_name(at.kernel) + ":" + std::to_string(at.prefix_len) + ":" +
           std::to_string(at.start) + ":" + fit_outcome_name(at.outcome) + ":" +
           std::to_string(at.iterations) + ":" +
           std::to_string(at.model_evals) + ":";
    fp_double(out, at.rmse);
  }
  out += "|";
  for (const auto& c : a.candidates) {
    out += kernel_name(c.kernel) + ":" + std::to_string(c.prefix_len) + ":" +
           std::to_string(c.checkpoints) + ":" + fit_outcome_name(c.outcome) +
           ":" + std::to_string(c.realistic_mask) + ":";
    fp_double(out, c.checkpoint_rmse);
  }
  out += "|" + std::to_string(a.has_winner) + ":" +
         kernel_name(a.winner_kernel) + ":" + std::to_string(a.winner_prefix) +
         ":" + std::to_string(a.winner_checkpoints) + ":";
  fp_double(out, a.winner_rmse);
  for (int c : a.checkpoint_cores) out += std::to_string(c) + ",";
  for (double v : a.checkpoint_predicted) fp_double(out, v);
  for (double v : a.checkpoint_actual) fp_double(out, v);
  out += std::to_string(a.fits_cancelled) + ":" +
         std::to_string(a.fits_aborted);
  return out;
}

std::string fingerprint(const PredictionAudit& a) {
  std::string out;
  for (const auto& cat : a.categories) {
    out += cat.name + "{" + fingerprint(cat.audit) + "}";
  }
  out += "factor{" + fingerprint(a.factor) + "}" +
         std::to_string(a.factor_used_relaxed);
  return out;
}

TEST(FitAudit, ByteIdenticalAcrossEnginesAndPoolSizes) {
  const MeasurementSet ms = campaign();
  parallel::ThreadPool pool(4);

  std::string reference;
  bool first = true;
  for (const FitFillFn engine : {&scalar_fill, FitFillFn{}}) {
    for (parallel::ThreadPool* p :
         {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
      PredictionConfig cfg = base_config();
      PredictionAudit audit;
      ExecContext ctx(p);
      ctx.engine = engine;
      ctx.audit = &audit;
      const Prediction pred = predict(ms, cfg, ctx);
      ASSERT_FALSE(audit.categories.empty());
      const std::string fp = fingerprint(audit);
      if (first) {
        reference = fp;
        first = false;
        // The baseline run must actually have recorded something.
        EXPECT_TRUE(audit.factor.has_winner);
        EXPECT_FALSE(audit.factor.attempts.empty());
        EXPECT_FALSE(audit.factor.candidates.empty());
        EXPECT_EQ(pred.factor_fn.type, audit.factor.winner_kernel);
      } else {
        EXPECT_EQ(fp, reference)
            << "audit diverged under engine="
            << (engine == nullptr ? "library" : "scalar oracle")
            << " pool=" << (p != nullptr ? "4" : "serial");
      }
    }
  }
}

TEST(FitAudit, WinnerRecordsDescribeTheServedPrediction) {
  const MeasurementSet ms = campaign();
  PredictionConfig cfg = base_config();
  PredictionAudit audit;
  ExecContext ctx;
  ctx.audit = &audit;
  const Prediction pred = predict(ms, cfg, ctx);

  ASSERT_EQ(audit.categories.size(), pred.categories.size());
  for (std::size_t i = 0; i < pred.categories.size(); ++i) {
    const FitAudit& a = audit.categories[i].audit;
    const CategoryPrediction& c = pred.categories[i];
    EXPECT_EQ(audit.categories[i].name, c.name);
    ASSERT_TRUE(a.has_winner) << c.name;
    EXPECT_EQ(a.winner_kernel, c.extrapolation.best.type) << c.name;
    EXPECT_EQ(a.winner_prefix, c.extrapolation.chosen_prefix) << c.name;
    EXPECT_EQ(a.winner_rmse, c.extrapolation.checkpoint_rmse) << c.name;
  }
  ASSERT_TRUE(audit.factor.has_winner);
  EXPECT_EQ(audit.factor.winner_kernel, pred.factor_fn.type);
  EXPECT_EQ(audit.factor_used_relaxed, pred.factor_used_relaxed_realism);

  // Exactly one candidate per decided series carries kWinner, and it is
  // the recorded winner; the scorecard covers real checkpoints.
  const auto check_single_winner = [](const FitAudit& a) {
    std::size_t winners = 0;
    for (const auto& c : a.candidates) {
      if (c.outcome == FitOutcome::kWinner) {
        ++winners;
        EXPECT_EQ(c.kernel, a.winner_kernel);
        EXPECT_EQ(c.prefix_len, a.winner_prefix);
      }
    }
    EXPECT_EQ(winners, 1u);
    EXPECT_FALSE(a.checkpoint_cores.empty());
    EXPECT_EQ(a.checkpoint_cores.size(), a.checkpoint_predicted.size());
    EXPECT_EQ(a.checkpoint_cores.size(), a.checkpoint_actual.size());
  };
  for (const auto& cat : audit.categories) check_single_winner(cat.audit);
  check_single_winner(audit.factor);
}

TEST(FitAudit, AuditCannotChangeThePredictionOrTheSignature) {
  const MeasurementSet ms = campaign();
  PredictionConfig plain = base_config();
  const Prediction without = predict(ms, plain);

  PredictionConfig audited = base_config();
  PredictionAudit audit;
  obs::Registry reg;
  FitMetrics metrics;
  metrics.init(reg);
  ExecContext ctx;
  ctx.audit = &audit;
  ctx.metrics = &metrics;
  const Prediction with = predict(ms, audited, ctx);

  ASSERT_EQ(without.time_s.size(), with.time_s.size());
  for (std::size_t i = 0; i < without.time_s.size(); ++i) {
    EXPECT_EQ(without.time_s[i], with.time_s[i]) << i;
  }
  EXPECT_EQ(without.factor_fn.type, with.factor_fn.type);
  // The sinks ride outside the campaign's identity, like trace/deadline.
  EXPECT_EQ(config_signature(plain), config_signature(audited));
}

// A PredictionAudit describes a whole prediction. The enumeration level
// takes its FitAudit as a separate argument and refuses a context that
// carries a PredictionAudit rather than silently dropping it.
TEST(FitAudit, EnumerationRejectsAPredictionAuditInItsContext) {
  const MeasurementSet ms = campaign();
  PredictionAudit audit;
  ExecContext ctx;
  ctx.audit = &audit;
  EXPECT_THROW(enumerate_candidates(ms.cores, ms.categories[0].values,
                                    ExtrapolationConfig{}, ctx),
               std::invalid_argument);
  EXPECT_THROW(predict_time_extrapolation(ms, base_config(), ctx),
               std::invalid_argument);
}

// Every candidate record's outcome must follow from its own fit: a fit
// that fit_kernel produces but some realism filter rejects is audited as
// unrealistic, never as no-fit. Checked against an independent
// fit_kernel + is_realistic per record, on the library engine and the
// scalar oracle, for a
// single-filter enumeration and for the strict + relaxed sweep predict()
// runs for the scaling factor.
TEST(FitAudit, RealismRejectedFitsAreAuditedAsUnrealistic) {
  SyntheticSpec spec;
  spec.stm_rate = 1e-4;
  spec.noise = 0.03;
  const MeasurementSet ms = make_synthetic(spec, counts_up_to(12));
  ExtrapolationConfig cfg;
  cfg.target_max_cores = 64;
  RealismOptions strict = cfg.realism;
  strict.explosion_factor = 5.0;
  const std::vector<double> xs(ms.cores.begin(), ms.cores.end());

  for (const FitFillFn engine : {&scalar_fill, FitFillFn{}}) {
    ExecContext ctx;
    ctx.engine = engine;
    for (const std::vector<RealismOptions>& filters :
         {std::vector<RealismOptions>{cfg.realism},
          std::vector<RealismOptions>{strict, cfg.realism}}) {
      std::vector<RealismOptions> ranged = filters;
      for (auto& r : ranged) {
        r.range_min = xs.front();
        r.range_max = std::max(cfg.target_max_cores, xs.back());
      }
      std::size_t rejected_by_all = 0;
      for (const auto& cat : ms.categories) {
        const std::vector<double>& ys = cat.values;
        double vmax = 0.0;
        bool nonneg = true;
        for (double y : ys) {
          vmax = std::max(vmax, std::fabs(y));
          nonneg = nonneg && y >= 0.0;
        }
        FitAudit audit;
        (void)enumerate_candidates_filtered(ms.cores, ys, cfg, filters, ctx,
                                            &audit);
        ASSERT_FALSE(audit.candidates.empty());
        for (const FitCandidate& c : audit.candidates) {
          const std::vector<double> pxs(xs.begin(), xs.begin() + c.prefix_len);
          const std::vector<double> pys(ys.begin(), ys.begin() + c.prefix_len);
          const auto fn = fit_kernel(c.kernel, pxs, pys, cfg.fit);
          const std::string where = cat.name + " " + kernel_name(c.kernel) +
                                    " prefix " +
                                    std::to_string(c.prefix_len);
          if (!fn) {
            EXPECT_EQ(c.outcome, FitOutcome::kNoFit) << where;
            continue;
          }
          std::uint64_t mask = 0;
          for (std::size_t v = 0; v < ranged.size(); ++v) {
            if (is_realistic(*fn, ranged[v], vmax, nonneg)) {
              mask |= std::uint64_t{1} << v;
            }
          }
          EXPECT_EQ(c.realistic_mask, mask) << where;
          if (mask == 0) {
            ++rejected_by_all;
            EXPECT_EQ(c.outcome, filters.size() > 1
                                     ? FitOutcome::kUnrealisticRelaxed
                                     : FitOutcome::kUnrealisticStrict)
                << where;
          } else if ((mask & 1) == 0) {
            EXPECT_EQ(c.outcome, FitOutcome::kUnrealisticStrict) << where;
          } else {
            EXPECT_EQ(c.outcome, FitOutcome::kWorseRmse) << where;
          }
        }
      }
      // The campaign must actually exercise the rejected-fit path.
      EXPECT_GT(rejected_by_all, 0u) << filters.size() << " filter(s)";
    }
  }
}

// One meaning per family: estima_fit_attempts_total counts the audit's
// FitAttempt records, estima_fit_candidates_total counts each FitCandidate
// record once, by its final outcome (the winner under "winner" only).
TEST(FitMetrics, CountsWinnersAndRecordsFitSeconds) {
  const MeasurementSet ms = campaign();
  obs::Registry reg;
  FitMetrics metrics;
  metrics.init(reg);
  PredictionConfig cfg = base_config();
  PredictionAudit audit;
  ExecContext ctx;
  ctx.audit = &audit;
  ctx.metrics = &metrics;
  const Prediction pred = predict(ms, cfg, ctx);

  std::uint64_t attempts = 0, candidates = 0, winners = 0, worse = 0;
  std::uint64_t fits_timed = 0;
  for (std::size_t k = 0; k < FitMetrics::kKernels; ++k) {
    for (std::size_t o = 0; o < kFitOutcomeCount; ++o) {
      const FitOutcome outcome = static_cast<FitOutcome>(o);
      const bool attempt_series =
          outcome <= FitOutcome::kNoFit || outcome == FitOutcome::kCancelled;
      const bool candidate_series =
          outcome >= FitOutcome::kNoFit && outcome <= FitOutcome::kWinner;
      ASSERT_EQ(metrics.attempts[k][o] != nullptr, attempt_series)
          << fit_outcome_name(outcome);
      ASSERT_EQ(metrics.candidates[k][o] != nullptr, candidate_series)
          << fit_outcome_name(outcome);
      if (attempt_series) attempts += metrics.attempts[k][o]->value();
      if (candidate_series) {
        const std::uint64_t v = metrics.candidates[k][o]->value();
        candidates += v;
        if (outcome == FitOutcome::kWinner) winners += v;
        if (outcome == FitOutcome::kWorseRmse) worse += v;
      }
    }
    fits_timed += metrics.fit_seconds[k]->snapshot().count;
  }
  std::size_t audit_attempts = audit.factor.attempts.size();
  std::size_t audit_candidates = audit.factor.candidates.size();
  std::size_t audit_worse = 0;
  for (const auto& cat : audit.categories) {
    audit_attempts += cat.audit.attempts.size();
    audit_candidates += cat.audit.candidates.size();
  }
  const auto count_worse = [&](const FitAudit& a) {
    for (const FitCandidate& c : a.candidates) {
      audit_worse += c.outcome == FitOutcome::kWorseRmse;
    }
  };
  count_worse(audit.factor);
  for (const auto& cat : audit.categories) count_worse(cat.audit);

  // One winner per decided series: every category plus the factor.
  EXPECT_EQ(winners, pred.categories.size() + 1);
  EXPECT_EQ(attempts, audit_attempts);
  EXPECT_EQ(candidates, audit_candidates);
  EXPECT_EQ(worse, audit_worse);
  EXPECT_GT(fits_timed, 0u);

  // The winner's own series must have been counted under its kernel.
  bool winner_counted = false;
  for (std::size_t k = 0; k < FitMetrics::kKernels; ++k) {
    if (kAllKernels[k] == pred.factor_fn.type) {
      winner_counted =
          metrics.candidates[k][static_cast<std::size_t>(FitOutcome::kWinner)]
              ->value() > 0;
    }
  }
  EXPECT_TRUE(winner_counted);

  obs::PrometheusWriter w;
  w.registry(reg);
  const auto err = obs::validate_prometheus_text(w.str());
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_NE(w.str().find("estima_fit_attempts_total{kernel=\""),
            std::string::npos);
  EXPECT_NE(w.str().find("estima_fit_candidates_total{kernel=\""),
            std::string::npos);
  EXPECT_EQ(w.str().find("estima_fit_attempts_total{kernel=\"Rat22\","
                         "outcome=\"winner\"}"),
            std::string::npos);
  EXPECT_NE(w.str().find("estima_fit_seconds_bucket{kernel=\""),
            std::string::npos);
}

// A memo replay executes no fit, so it counts no attempt; its candidates
// are still scored, and counted, like fresh ones.
TEST(FitMetrics, MemoReplaysCountCandidatesButNoAttempts) {
  const MeasurementSet ms = campaign();
  obs::Registry reg;
  FitMetrics metrics;
  metrics.init(reg);
  FitMemo memo;
  ExecContext ctx;
  ctx.metrics = &metrics;
  ctx.memo = &memo;
  const auto totals = [&] {
    std::uint64_t attempts = 0, candidates = 0;
    for (std::size_t k = 0; k < FitMetrics::kKernels; ++k) {
      for (std::size_t o = 0; o < kFitOutcomeCount; ++o) {
        if (metrics.attempts[k][o]) attempts += metrics.attempts[k][o]->value();
        if (metrics.candidates[k][o]) {
          candidates += metrics.candidates[k][o]->value();
        }
      }
    }
    return std::make_pair(attempts, candidates);
  };
  (void)predict(ms, base_config(), ctx);
  const auto cold = totals();
  ASSERT_GT(cold.first, 0u);
  ASSERT_GT(cold.second, 0u);
  (void)predict(ms, base_config(), ctx);
  const auto warm = totals();
  EXPECT_EQ(warm.first, cold.first) << "a memo replay counted attempts";
  EXPECT_EQ(warm.second, 2 * cold.second);
}

TEST(FitOutcome, NamesAreTheStableKebabCaseSchema) {
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kConverged), "converged");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kMaxIter), "max-iter");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kNoProgress), "no-progress");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kCholeskyFail), "cholesky-fail");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kNudgeExhausted),
               "nudge-exhausted");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kNoFit), "no-fit");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kUnrealisticStrict),
               "unrealistic-strict");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kUnrealisticRelaxed),
               "unrealistic-relaxed");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kWorseRmse), "worse-rmse");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kWinner), "winner");
  EXPECT_STREQ(fit_outcome_name(FitOutcome::kCancelled), "cancelled");
}

}  // namespace
}  // namespace estima::core
