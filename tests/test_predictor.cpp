#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/fit_audit.hpp"
#include "core/fit_memo.hpp"
#include "core/fit_slots.hpp"
#include "core/prediction_io.hpp"
#include "legacy_writers.hpp"
#include "obs/histogram.hpp"
#include "oracle/scalar_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::core {
namespace {

using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

TEST(Predictor, ScalableWorkloadPredictedToScale) {
  SyntheticSpec spec;
  spec.mem_growth = 0.005;  // mild stall growth: keeps scaling to 48
  const auto truth = make_synthetic(spec, counts_up_to(48));
  const auto measured = truth.truncated(12);

  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);

  const auto err = evaluate_prediction(pred, truth);
  EXPECT_TRUE(err.scaling_verdict_match);
  EXPECT_LT(err.mean_pct, 25.0);
  // Time at 48 cores must be clearly below single-core time.
  EXPECT_LT(pred.time_s.back(), 0.3 * pred.time_s.front());
}

TEST(Predictor, ContendedWorkloadPredictedToStopScaling) {
  SyntheticSpec spec;
  spec.mem_growth = 0.01;
  spec.lock_rate = 0.002;  // lock convoy: slowdown past ~25 cores
  const auto truth = make_synthetic(spec, counts_up_to(48));
  const auto measured = truth.truncated(12);

  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);

  const auto err = evaluate_prediction(pred, truth);
  EXPECT_TRUE(err.scaling_verdict_match);
  // Both should agree the best core count is well below 48.
  EXPECT_LT(err.predicted_best_cores, 40);
  EXPECT_LT(err.actual_best_cores, 40);
}

TEST(Predictor, SoftwareStallsImproveStmWorkloadPrediction) {
  SyntheticSpec spec;
  spec.mem_growth = 0.005;
  spec.stm_rate = 0.002;  // substantial abort cycles
  const auto truth = make_synthetic(spec, counts_up_to(48));
  const auto measured = truth.truncated(12);

  PredictionConfig with_sw;
  with_sw.target_cores = counts_up_to(48);
  with_sw.use_software_stalls = true;
  PredictionConfig without_sw = with_sw;
  without_sw.use_software_stalls = false;

  const auto err_with =
      evaluate_prediction(predict(measured, with_sw), truth);
  const auto err_without =
      evaluate_prediction(predict(measured, without_sw), truth);
  EXPECT_LE(err_with.mean_pct, err_without.mean_pct + 1.0);
}

TEST(Predictor, FrequencyScalingShiftsPrediction) {
  SyntheticSpec spec;
  spec.freq_ghz = 3.4;
  const auto measured = make_synthetic(spec, counts_up_to(12));

  PredictionConfig same;
  same.target_cores = counts_up_to(20);
  PredictionConfig slower = same;
  slower.target_freq_ghz = 1.7;  // half the clock -> double the time

  auto p_same = predict(measured, same);
  auto p_slower = predict(measured, slower);
  for (std::size_t i = 0; i < p_same.time_s.size(); ++i) {
    EXPECT_NEAR(p_slower.time_s[i] / p_same.time_s[i], 2.0, 0.05);
  }
}

TEST(Predictor, WeakScalingScalesStallVolume) {
  SyntheticSpec spec;
  const auto measured = make_synthetic(spec, counts_up_to(10));

  PredictionConfig one;
  one.target_cores = counts_up_to(20);
  PredictionConfig twice = one;
  twice.dataset_scale = 2.0;

  auto p1 = predict(measured, one);
  auto p2 = predict(measured, twice);
  // Stall volume doubles; with an unchanged factor function the predicted
  // time roughly doubles as well (the paper's "simple scaling").
  for (std::size_t i = 0; i < p1.stalls_per_core.size(); ++i) {
    EXPECT_NEAR(p2.stalls_per_core[i] / p1.stalls_per_core[i], 2.0, 1e-9);
  }
}

TEST(Predictor, AggregateModeMergesCategories) {
  SyntheticSpec spec;
  spec.stm_rate = 0.001;
  const auto measured = make_synthetic(spec, counts_up_to(12));

  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(24);
  cfg.aggregate_mode = true;
  auto pred = predict(measured, cfg);
  ASSERT_EQ(pred.categories.size(), 1u);
  EXPECT_EQ(pred.categories[0].name, "aggregate-backend-stalls");
}

TEST(Predictor, FactorCorrelationIsHigh) {
  SyntheticSpec spec;
  spec.mem_growth = 0.02;
  const auto measured = make_synthetic(spec, counts_up_to(12));
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);
  EXPECT_GT(pred.factor_correlation, 0.8);
}

TEST(Predictor, FactorEnumerationSharesFitsAcrossRealismPasses) {
  SyntheticSpec spec;
  spec.mem_growth = 0.005;
  const auto measured = make_synthetic(spec, counts_up_to(12));

  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  const auto pred = predict(measured, cfg);

  // The strict and relaxed scaling-factor passes score one shared fit
  // pool: both filters are accounted, nothing is refit for the retry.
  EXPECT_EQ(pred.factor_stats.realism_variants, 2u);
  EXPECT_GT(pred.factor_stats.fits_executed, 0u);
  EXPECT_EQ(pred.factor_stats.variant_refits_avoided,
            pred.factor_stats.fits_executed);
  EXPECT_EQ(pred.factor_stats.duplicate_fits_eliminated,
            pred.factor_stats.candidates_attempted -
                pred.factor_stats.fits_executed);
  // A healthy campaign satisfies the strict pass.
  EXPECT_FALSE(pred.factor_used_relaxed_realism);
}

TEST(Predictor, RejectsTooFewPoints) {
  SyntheticSpec spec;
  const auto measured = make_synthetic(spec, {1, 2, 3, 4});
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(8);
  EXPECT_THROW(predict(measured, cfg), std::invalid_argument);
}

TEST(Predictor, RejectsEmptyTargets) {
  SyntheticSpec spec;
  const auto measured = make_synthetic(spec, counts_up_to(8));
  PredictionConfig cfg;
  EXPECT_THROW(predict(measured, cfg), std::invalid_argument);
}

TEST(Predictor, TimeExtrapolationBaselineRuns) {
  SyntheticSpec spec;
  const auto truth = make_synthetic(spec, counts_up_to(48));
  const auto measured = truth.truncated(12);
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto base = predict_time_extrapolation(measured, cfg);
  ASSERT_EQ(base.time_s.size(), cfg.target_cores.size());
  for (double t : base.time_s) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GT(t, 0.0);
  }
}

TEST(Predictor, BestCoreCount) {
  Prediction p;
  p.cores = {1, 2, 4, 8};
  p.time_s = {8.0, 4.0, 2.5, 3.5};
  EXPECT_EQ(p.best_core_count(), 4);
}

TEST(Predictor, CoresUpTo) {
  auto v = cores_up_to(3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
  EXPECT_TRUE(cores_up_to(0).empty());
}

// Property sweep: over a grid of synthetic workloads, ESTIMA must never
// invert the scaling verdict (the paper's headline robustness claim).
struct SweepParam {
  double mem_growth;
  double lock_rate;
  double stm_rate;
};

class VerdictSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VerdictSweepTest, NoScalingVerdictFlip) {
  const auto& p = GetParam();
  SyntheticSpec spec;
  spec.mem_growth = p.mem_growth;
  spec.lock_rate = p.lock_rate;
  spec.stm_rate = p.stm_rate;
  spec.noise = 0.01;
  const auto truth = make_synthetic(spec, counts_up_to(48));
  const auto measured = truth.truncated(12);

  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);
  const auto err = evaluate_prediction(pred, truth);
  EXPECT_TRUE(err.scaling_verdict_match)
      << "growth=" << p.mem_growth << " lock=" << p.lock_rate
      << " stm=" << p.stm_rate
      << " predicted_best=" << err.predicted_best_cores
      << " actual_best=" << err.actual_best_cores;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadGrid, VerdictSweepTest,
    ::testing::Values(SweepParam{0.005, 0.0, 0.0},
                      SweepParam{0.02, 0.0, 0.0},
                      SweepParam{0.015, 0.0, 0.0},
                      SweepParam{0.01, 0.002, 0.0},
                      SweepParam{0.01, 0.004, 0.0},
                      SweepParam{0.01, 0.0, 0.002},
                      SweepParam{0.01, 0.001, 0.001},
                      SweepParam{0.03, 0.003, 0.0}));

// Golden bit-identity corpus: for a spread of workload shapes, the
// serialised prediction record must be byte-equal between the library's
// fit engine and the scalar oracle (tests/oracle/), single-threaded and
// fanned out across a pool. This is the contract that lets the batched
// engine stand in for the straightforward one and lets servers pick thread
// counts freely without changing any answer.
TEST(Predictor, GoldenCorpusByteEqualAcrossEnginesAndPools) {
  std::vector<SyntheticSpec> corpus(3);
  corpus[0].mem_growth = 0.005;                       // scales to the end
  corpus[1].mem_growth = 0.01;
  corpus[1].lock_rate = 0.002;                        // lock convoy
  corpus[2].mem_growth = 0.01;
  corpus[2].stm_rate = 0.002;                         // abort-dominated

  parallel::ThreadPool pool(4);
  // More workers than a prediction has fit jobs: most claim nothing.
  parallel::ThreadPool wide(64);
  for (std::size_t w = 0; w < corpus.size(); ++w) {
    const auto measured = make_synthetic(corpus[w], counts_up_to(12));

    PredictionConfig cfg;
    cfg.target_cores = counts_up_to(48);
    ASSERT_GT(wide.size(),
              (measured.categories.size() + 1) * kAllKernels.size());

    // Every record is also held byte-equal to the legacy ostream writer
    // (tests/legacy_writers.hpp), the format's reference bytes.
    const auto record = [&](FitFillFn engine,
                            parallel::ThreadPool* p) -> std::string {
      ExecContext ctx(p);
      ctx.engine = engine;
      const Prediction pred = predict(measured, cfg, ctx);
      std::ostringstream os;
      write_prediction(os, pred);
      EXPECT_EQ(os.str(), testing::legacy_record(pred))
          << "workload " << w << ": record drifted from the legacy bytes";
      return os.str();
    };

    const std::string golden = record(&scalar_fill, nullptr);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(record(&scalar_fill, &pool), golden)
        << "workload " << w << ": scalar oracle changed under the pool";
    EXPECT_EQ(record(nullptr, nullptr), golden)
        << "workload " << w << ": library engine diverged (serial)";
    EXPECT_EQ(record(nullptr, &pool), golden)
        << "workload " << w << ": library engine diverged (pooled)";
    EXPECT_EQ(record(&scalar_fill, &wide), golden)
        << "workload " << w << ": scalar oracle changed under the wide pool";
    EXPECT_EQ(record(nullptr, &wide), golden)
        << "workload " << w << ": library engine diverged (wide pool)";
  }
}

// predict() runs every fit job of a prediction in one fan-out. The tests
// below hold that schedule to the old one's exception order, its memo
// rule and its answers under concurrent callers.

// The deadline a cancelling_job cancels when it runs first.
std::atomic<Deadline*> g_cancel_on_first_job{nullptr};

// A fill job that cancels the prediction's deadline when it is the first
// job to run, then fills like the scalar oracle.
std::size_t cancelling_job(FitSlots& slots, std::size_t k,
                           const ExecContext& ctx) {
  if (Deadline* d = g_cancel_on_first_job.exchange(nullptr)) d->cancel();
  return scalar_fill(slots, k, ctx);
}

TEST(PredictSchedule, CancelledFirstJobRaisesCategoryDeadlineAndFeedsNoMemo) {
  SyntheticSpec spec;
  spec.mem_growth = 0.01;
  spec.lock_rate = 0.002;
  const auto measured = make_synthetic(spec, counts_up_to(12));
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);

  parallel::ThreadPool pool(2);
  for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr),
                                  &pool}) {
    obs::Registry reg;
    FitMetrics metrics;
    metrics.init(reg);
    FitMemo memo;
    Deadline deadline;
    g_cancel_on_first_job = &deadline;
    ExecContext ctx(p);
    ctx.engine = &cancelling_job;
    ctx.deadline = &deadline;
    ctx.memo = &memo;
    ctx.metrics = &metrics;
    try {
      (void)predict(measured, cfg, ctx);
      FAIL() << "a cancelled fill must not produce an answer";
    } catch (const DeadlineExceeded& e) {
      EXPECT_STREQ(e.what(),
                   "predict: deadline expired during category extrapolation");
    }
    EXPECT_EQ(g_cancel_on_first_job.load(), nullptr);
    EXPECT_EQ(memo.stats().entries, 0u) << "an abandoned fill fed the memo";
    std::uint64_t cancelled = 0;
    for (std::size_t k = 0; k < FitMetrics::kKernels; ++k) {
      cancelled +=
          metrics.attempts[k][static_cast<std::size_t>(FitOutcome::kCancelled)]
              ->value();
    }
    EXPECT_GT(cancelled, 0u);
  }
}

TEST(PredictSchedule, ZeroStallsPerCoreRaisesTheSameMessage) {
  SyntheticSpec spec;
  spec.mem_growth = 0.005;
  auto measured = make_synthetic(spec, counts_up_to(12));
  for (auto& cat : measured.categories) cat.values[5] = 0.0;
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  parallel::ThreadPool pool(2);
  for (const FitFillFn engine : {&scalar_fill, FitFillFn{}}) {
    ExecContext ctx(&pool);
    ctx.engine = engine;
    try {
      (void)predict(measured, cfg, ctx);
      FAIL() << "a zero stalls-per-core point must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "predict: zero stalls-per-core at a measured point");
    }
  }
}

// The daemon's shape: two request threads calling predict() on one
// 2-worker pool, whose fan-outs interleave on the same workers.
TEST(PredictSchedule, ConcurrentCallersOnOnePoolMatchSerialRecords) {
  std::vector<SyntheticSpec> corpus(3);
  corpus[0].mem_growth = 0.005;
  corpus[1].mem_growth = 0.01;
  corpus[1].lock_rate = 0.002;
  corpus[2].mem_growth = 0.01;
  corpus[2].stm_rate = 0.002;
  std::vector<MeasurementSet> campaigns;
  for (const auto& spec : corpus) {
    campaigns.push_back(make_synthetic(spec, counts_up_to(12)));
  }
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  const auto record = [&](const MeasurementSet& ms, const ExecContext& ctx) {
    std::ostringstream os;
    write_prediction(os, predict(ms, cfg, ctx));
    return os.str();
  };
  std::vector<std::string> serial;
  for (const auto& ms : campaigns) serial.push_back(record(ms, {}));

  parallel::ThreadPool pool(2);
  for (const FitFillFn engine : {&scalar_fill, FitFillFn{}}) {
    ExecContext ctx(&pool);
    ctx.engine = engine;
    std::vector<std::string> got[2];
    const auto caller = [&](int t) {
      for (int round = 0; round < 2; ++round) {
        for (std::size_t c = 0; c < campaigns.size(); ++c) {
          // The two callers walk the corpus in opposite orders.
          const std::size_t i = t == 0 ? c : campaigns.size() - 1 - c;
          got[t].push_back(record(campaigns[i], ctx));
        }
      }
    };
    std::thread a(caller, 0);
    std::thread b(caller, 1);
    a.join();
    b.join();
    for (int t = 0; t < 2; ++t) {
      ASSERT_EQ(got[t].size(), 2 * campaigns.size());
      for (std::size_t j = 0; j < got[t].size(); ++j) {
        const std::size_t c = j % campaigns.size();
        const std::size_t i = t == 0 ? c : campaigns.size() - 1 - c;
        EXPECT_EQ(got[t][j], serial[i])
            << "caller " << t << " campaign " << i << " engine "
            << (engine == nullptr ? "library" : "oracle");
      }
    }
  }
}

}  // namespace
}  // namespace estima::core
