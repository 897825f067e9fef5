#include "core/extrapolator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/fit_engine.hpp"
#include "numeric/stats.hpp"
#include "oracle/scalar_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::core {
namespace {

std::vector<int> cores(int m) {
  std::vector<int> xs;
  for (int i = 1; i <= m; ++i) xs.push_back(i);
  return xs;
}

TEST(Extrapolator, RecoversSaturatingCurve) {
  // Stall-like series that saturates: v(n) = 100 n / (1 + 0.1 n).
  auto xs = cores(12);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(100.0 * x / (1.0 + 0.1 * x));
  ExtrapolationConfig cfg;
  cfg.target_max_cores = 48;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  for (int n : {16, 24, 48}) {
    const double want = 100.0 * n / (1.0 + 0.1 * n);
    EXPECT_NEAR(ext->best(n), want, 0.05 * want) << "n=" << n;
  }
}

TEST(Extrapolator, RecoversSuperlinearGrowth) {
  // Contention blow-up: v(n) = 5 n^2.
  auto xs = cores(12);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(5.0 * x * x);
  ExtrapolationConfig cfg;
  cfg.target_max_cores = 48;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  const double at48 = ext->best(48);
  EXPECT_NEAR(at48, 5.0 * 48 * 48, 0.10 * 5.0 * 48 * 48);
}

TEST(Extrapolator, ChoosesByCheckpointRmse) {
  auto xs = cores(10);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(10.0 + 2.0 * std::log(x));
  ExtrapolationConfig cfg;
  cfg.target_max_cores = 40;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  // With noise-free log data, checkpoint error should be essentially zero.
  EXPECT_LT(ext->checkpoint_rmse, 1e-6);
  EXPECT_GT(ext->candidates_realistic, 0u);
}

TEST(Extrapolator, ReportsChosenPrefixAndCheckpoints) {
  auto xs = cores(12);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(3.0 * x);
  ExtrapolationConfig cfg;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  EXPECT_GE(ext->chosen_prefix, cfg.min_prefix);
  EXPECT_TRUE(ext->chosen_checkpoints == 2 || ext->chosen_checkpoints == 4);
}

TEST(Extrapolator, TooFewPointsFails) {
  std::vector<int> xs{1, 2, 3};
  std::vector<double> ys{1.0, 2.0, 3.0};
  ExtrapolationConfig cfg;
  EXPECT_FALSE(extrapolate_series(xs, ys, cfg).has_value());
}

TEST(Extrapolator, NoisyDataStillProducesRealisticFit) {
  auto xs = cores(12);
  std::vector<double> ys;
  for (int x : xs) {
    const double base = 50.0 * x / (1.0 + 0.05 * x);
    // +-3% deterministic ripple.
    ys.push_back(base * (1.0 + 0.03 * std::sin(1.7 * x)));
  }
  ExtrapolationConfig cfg;
  cfg.target_max_cores = 48;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  for (int n = 1; n <= 48; ++n) {
    EXPECT_TRUE(std::isfinite(ext->best(n)));
    EXPECT_GE(ext->best(n), 0.0);
  }
}

TEST(Extrapolator, EnumerateCandidatesExposesAllRealisticFits) {
  auto xs = cores(10);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(7.0 * x + 1.0);
  ExtrapolationConfig cfg;
  auto cands = enumerate_candidates(xs, ys, cfg);
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_GE(c.prefix_len, cfg.min_prefix);
    EXPECT_TRUE(std::isfinite(c.checkpoint_rmse));
  }
}

TEST(Extrapolator, ConstantSeriesExtrapolatesFlat) {
  auto xs = cores(10);
  std::vector<double> ys(10, 42.0);
  ExtrapolationConfig cfg;
  cfg.target_max_cores = 48;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  EXPECT_NEAR(ext->best(48), 42.0, 1.0);
}

// The enumeration must return exactly the candidate set of an independent
// brute-force loop (one fit_kernel + is_realistic per kernel x prefix x
// checkpoint-setting combination), in the same order, on realistic
// synthetic campaigns, while executing each (kernel, prefix) fit once —
// on the library engine and the scalar oracle, serial and with pool
// threads writing the slots.
TEST(Extrapolator, MemoizedMatchesBruteForceReference) {
  estima::sim::SyntheticSpec spec;
  spec.stm_rate = 1e-4;
  spec.noise = 0.03;
  const auto ms =
      estima::sim::make_synthetic(spec, estima::sim::counts_up_to(12));

  ExtrapolationConfig cfg;
  cfg.checkpoint_counts = {1, 2, 3, 4};
  cfg.target_max_cores = 64;
  const std::vector<double> xs(ms.cores.begin(), ms.cores.end());
  const int m = static_cast<int>(xs.size());
  RealismOptions realism = cfg.realism;
  realism.range_min = xs.front();
  realism.range_max = std::max(cfg.target_max_cores, xs.back());
  parallel::ThreadPool pool(4);

  for (const auto& cat : ms.categories) {
    const std::vector<double>& ys = cat.values;
    double vmax = 0.0;
    bool nonneg = true;
    for (double y : ys) {
      vmax = std::max(vmax, std::fabs(y));
      nonneg = nonneg && y >= 0.0;
    }
    std::vector<CandidateFit> want;
    std::size_t brute_fits = 0;
    for (int c : cfg.checkpoint_counts) {
      std::vector<std::size_t> checkpoint_idx;
      for (int i = m - c; i < m; ++i) {
        checkpoint_idx.push_back(static_cast<std::size_t>(i));
      }
      for (int i = cfg.min_prefix; i <= m - c; ++i) {
        const std::vector<double> pxs(xs.begin(), xs.begin() + i);
        const std::vector<double> pys(ys.begin(), ys.begin() + i);
        for (const KernelType type : kAllKernels) {
          ++brute_fits;
          const auto fn = fit_kernel(type, pxs, pys, cfg.fit);
          if (!fn || !is_realistic(*fn, realism, vmax, nonneg)) continue;
          std::vector<double> pred;
          for (double x : xs) pred.push_back((*fn)(x));
          const double err = numeric::rmse_at(pred, ys, checkpoint_idx);
          if (std::isfinite(err)) want.push_back({*fn, i, c, err});
        }
      }
    }

    for (const FitFillFn engine : {&scalar_fill, FitFillFn{}}) {
      for (parallel::ThreadPool* p :
           {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
        ExecContext ctx(p);
        ctx.engine = engine;
        EnumerationStats stats;
        const auto got =
            enumerate_candidates(ms.cores, ys, cfg, ctx, nullptr, &stats);
        ASSERT_EQ(got.size(), want.size()) << cat.name;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].fn.type, want[i].fn.type);
          EXPECT_EQ(got[i].fn.params, want[i].fn.params);  // bitwise
          EXPECT_EQ(got[i].fn.y_scale, want[i].fn.y_scale);
          EXPECT_EQ(got[i].prefix_len, want[i].prefix_len);
          EXPECT_EQ(got[i].checkpoints, want[i].checkpoints);
          EXPECT_EQ(got[i].checkpoint_rmse, want[i].checkpoint_rmse);
        }

        // Work accounting: the enumeration considers every combination
        // the brute-force loop fitted, yet provably never refits a
        // (kernel, prefix) pair.
        EXPECT_EQ(stats.candidates_attempted, brute_fits);
        const std::size_t unique_pairs =
            kAllKernels.size() * static_cast<std::size_t>(12 - 1 - 3 + 1);
        EXPECT_EQ(stats.fits_executed, unique_pairs);
        EXPECT_EQ(stats.duplicate_fits_eliminated,
                  stats.candidates_attempted - unique_pairs);
      }
    }
  }
}

// A strict + relaxed realism sweep must return, per filter, exactly the
// candidates of a standalone enumeration under that filter — while
// executing the fits only once and reporting the sharing in the stats.
TEST(Extrapolator, FilteredSweepSharesFitsAcrossRealismFilters) {
  estima::sim::SyntheticSpec spec;
  spec.stm_rate = 1e-4;
  spec.noise = 0.03;
  const auto ms =
      estima::sim::make_synthetic(spec, estima::sim::counts_up_to(12));

  ExtrapolationConfig cfg;
  cfg.target_max_cores = 64;
  RealismOptions strict = cfg.realism;
  strict.explosion_factor = 5.0;

  for (const auto& cat : ms.categories) {
    EnumerationStats shared_stats;
    const auto lists =
        enumerate_candidates_filtered(ms.cores, cat.values, cfg,
                                      {strict, cfg.realism}, {}, nullptr,
                                      &shared_stats);
    ASSERT_EQ(lists.size(), 2u);

    ExtrapolationConfig strict_cfg = cfg;
    strict_cfg.realism = strict;
    EnumerationStats solo_stats;
    const auto strict_solo = enumerate_candidates(
        ms.cores, cat.values, strict_cfg, {}, nullptr, &solo_stats);
    const auto relaxed_solo = enumerate_candidates(ms.cores, cat.values, cfg);

    for (std::size_t v = 0; v < 2; ++v) {
      const auto& got = lists[v];
      const auto& want = v == 0 ? strict_solo : relaxed_solo;
      ASSERT_EQ(got.size(), want.size()) << cat.name << " filter " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].fn.params, want[i].fn.params);  // bitwise
        EXPECT_EQ(got[i].prefix_len, want[i].prefix_len);
        EXPECT_EQ(got[i].checkpoints, want[i].checkpoints);
        EXPECT_EQ(got[i].checkpoint_rmse, want[i].checkpoint_rmse);
      }
    }

    // Auditable sharing: two filters, one fit execution.
    EXPECT_EQ(shared_stats.realism_variants, 2u);
    EXPECT_EQ(shared_stats.fits_executed, solo_stats.fits_executed);
    EXPECT_EQ(shared_stats.candidates_attempted,
              2 * solo_stats.candidates_attempted);
    EXPECT_EQ(shared_stats.variant_refits_avoided,
              shared_stats.fits_executed);
    EXPECT_EQ(shared_stats.duplicate_fits_eliminated,
              shared_stats.candidates_attempted - shared_stats.fits_executed);
  }
}

TEST(Extrapolator, SeriesReportsEnumerationCounters) {
  auto xs = cores(12);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(100.0 * x / (1.0 + 0.1 * x));
  ExtrapolationConfig cfg;  // default {2, 4} checkpoints
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  // attempted = kernels * (prefix count for c=2) + kernels * (c=4).
  const std::size_t want_attempted = kAllKernels.size() * ((10 - 3 + 1) +
                                                           (8 - 3 + 1));
  EXPECT_EQ(ext->candidates_considered, want_attempted);
  // unique prefixes span 3..10 (c=2 dominates): 8 per kernel.
  EXPECT_EQ(ext->fits_executed, kAllKernels.size() * 8);
  EXPECT_EQ(ext->duplicate_fits_eliminated,
            want_attempted - ext->fits_executed);
}

// Property sweep: for every checkpoint configuration, the chosen function
// must stay realistic over the whole horizon.
class CheckpointSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointSweepTest, ChosenFitRealisticOverHorizon) {
  const int c = GetParam();
  auto xs = cores(12);
  std::vector<double> ys;
  for (int x : xs) ys.push_back(20.0 * x / (1.0 + 0.02 * x * x));
  ExtrapolationConfig cfg;
  cfg.checkpoint_counts = {c};
  cfg.target_max_cores = 48;
  auto ext = extrapolate_series(xs, ys, cfg);
  ASSERT_TRUE(ext.has_value());
  for (int n = 1; n <= 48; ++n) {
    const double v = ext->best(n);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -0.05 * 120.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Checkpoints, CheckpointSweepTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace estima::core
