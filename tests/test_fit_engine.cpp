#include "core/fit_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "oracle/scalar_fit.hpp"

namespace estima::core {
namespace {

std::vector<double> core_counts(int m) {
  std::vector<double> xs;
  for (int i = 1; i <= m; ++i) xs.push_back(i);
  return xs;
}

TEST(FitEngine, CubicLnRoundTrip) {
  std::vector<double> truth{3.0, 1.5, -0.2, 0.05};
  auto xs = core_counts(10);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(kernel_eval(KernelType::kCubicLn, x, truth));
  auto f = fit_kernel(KernelType::kCubicLn, xs, ys);
  ASSERT_TRUE(f.has_value());
  for (double x : {1.0, 5.0, 20.0, 48.0}) {
    EXPECT_NEAR((*f)(x), kernel_eval(KernelType::kCubicLn, x, truth), 1e-6);
  }
}

TEST(FitEngine, Poly25RoundTrip) {
  std::vector<double> truth{10.0, -0.5, 0.02, 0.001};
  auto xs = core_counts(10);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(kernel_eval(KernelType::kPoly25, x, truth));
  auto f = fit_kernel(KernelType::kPoly25, xs, ys);
  ASSERT_TRUE(f.has_value());
  for (double x : {2.0, 12.0, 36.0}) {
    EXPECT_NEAR((*f)(x), kernel_eval(KernelType::kPoly25, x, truth),
                1e-6 * std::fabs(kernel_eval(KernelType::kPoly25, x, truth)));
  }
}

TEST(FitEngine, Rat22RoundTrip) {
  // Saturating curve: (1 + 3n) / (1 + 0.2n) -> 15 as n -> inf.
  std::vector<double> truth{1.0, 3.0, 0.0, 0.2, 0.0};
  auto xs = core_counts(12);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(kernel_eval(KernelType::kRat22, x, truth));
  auto f = fit_kernel(KernelType::kRat22, xs, ys);
  ASSERT_TRUE(f.has_value());
  for (double x : {2.0, 10.0, 30.0, 48.0}) {
    const double want = kernel_eval(KernelType::kRat22, x, truth);
    EXPECT_NEAR((*f)(x), want, 2e-2 * std::fabs(want));
  }
}

TEST(FitEngine, ExpRatRoundTripOnPositiveData) {
  // exp((0.5 + 0.3n)/(1 + 0.1n)): grows towards exp(3).
  std::vector<double> truth{0.5, 0.3, 0.1};
  auto xs = core_counts(12);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(kernel_eval(KernelType::kExpRat, x, truth));
  auto f = fit_kernel(KernelType::kExpRat, xs, ys);
  ASSERT_TRUE(f.has_value());
  for (double x : {2.0, 10.0, 24.0}) {
    const double want = kernel_eval(KernelType::kExpRat, x, truth);
    EXPECT_NEAR((*f)(x), want, 5e-2 * std::fabs(want));
  }
}

// Regression (dead-fallback bug): fit_nonlinear_kernel used to return
// nullopt for ExpRat on ANY non-positive sample before the bland fallback
// starts ever ran. Only the linearised start needs positivity; LM itself
// does not, so mixed-sign data must still produce an ExpRat candidate.
TEST(FitEngine, ExpRatFitsMixedSignDataViaFallbackStarts) {
  auto xs = core_counts(6);
  std::vector<double> ys{1.0, 0.5, -0.2, 0.1, 0.3, 0.4};
  auto f = fit_kernel(KernelType::kExpRat, xs, ys);
  ASSERT_TRUE(f.has_value());
  for (double v : f->params) EXPECT_TRUE(std::isfinite(v));
  // A single zero sample (dip to idle) must not drop the candidate either.
  std::vector<double> ys_zero{1.0, 0.8, 0.0, 0.5, 0.6, 0.7};
  EXPECT_TRUE(fit_kernel(KernelType::kExpRat, xs, ys_zero).has_value());
}

// Regression (wrong-answer bug): the all-zero-series shortcut returned
// zero parameters for EVERY kernel, but ExpRat with zero params is
// exp(0) = 1 — an all-zero campaign would have been answered with a
// prediction of 1.0. No kernel may ever predict nonzero from all zeros.
TEST(FitEngine, AllZeroSeriesNeverPredictsNonzero) {
  auto xs = core_counts(6);
  std::vector<double> ys(6, 0.0);
  for (KernelType type : kAllKernels) {
    auto f = fit_kernel(type, xs, ys);
    if (!f.has_value()) {
      // Declining to fit is always safe (ExpRat has no zero function).
      EXPECT_EQ(type, KernelType::kExpRat) << kernel_name(type);
      continue;
    }
    for (double n : {1.0, 4.0, 17.0, 48.0}) {
      EXPECT_EQ((*f)(n), 0.0) << kernel_name(type) << " n=" << n;
    }
  }
}

TEST(FitEngine, HandlesHugeCycleCounts) {
  // Raw stall-cycle magnitudes (~1e12) must not break conditioning.
  auto xs = core_counts(8);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(1e12 * (1.0 + 0.5 * std::log(x)));
  auto f = fit_kernel(KernelType::kCubicLn, xs, ys);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR((*f)(4.0), 1e12 * (1.0 + 0.5 * std::log(4.0)), 1e6);
}

TEST(FitEngine, AllZeroSeriesFitsAsZero) {
  auto xs = core_counts(6);
  std::vector<double> ys(6, 0.0);
  auto f = fit_kernel(KernelType::kRat22, xs, ys);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ((*f)(17.0), 0.0);
}

TEST(FitEngine, RejectsTooFewPoints) {
  EXPECT_FALSE(fit_kernel(KernelType::kCubicLn, {1.0}, {2.0}).has_value());
  EXPECT_FALSE(fit_kernel(KernelType::kCubicLn, {}, {}).has_value());
}

TEST(FitEngine, RejectsNonPositiveCoreCounts) {
  EXPECT_FALSE(
      fit_kernel(KernelType::kCubicLn, {0.0, 1.0, 2.0}, {1.0, 2.0, 3.0})
          .has_value());
}

TEST(FitEngine, ShortPrefixUsesRidgeAndStaysFinite) {
  // 3 points, 7-parameter Rat33: under-determined, must not blow up.
  std::vector<double> xs{1.0, 2.0, 3.0};
  std::vector<double> ys{5.0, 4.0, 3.5};
  auto f = fit_kernel(KernelType::kRat33, xs, ys);
  ASSERT_TRUE(f.has_value());
  for (double x : {1.0, 2.0, 3.0, 10.0}) {
    EXPECT_TRUE(std::isfinite((*f)(x)));
  }
}

TEST(Realism, AcceptsBoundedPositiveFit) {
  FittedFunction f{KernelType::kCubicLn, {1.0, 0.5, 0.0, 0.0}, 1.0};
  RealismOptions opts;
  opts.range_min = 1.0;
  opts.range_max = 48.0;
  EXPECT_TRUE(is_realistic(f, opts, 10.0, true));
}

TEST(Realism, RejectsPoleInsideRange) {
  // Denominator 1 - 0.05 n crosses zero at n = 20 < 48.
  FittedFunction f{KernelType::kRat22, {1.0, 0.0, 0.0, -0.05, 0.0}, 1.0};
  RealismOptions opts;
  opts.range_min = 1.0;
  opts.range_max = 48.0;
  EXPECT_FALSE(is_realistic(f, opts, 10.0, true));
}

TEST(Realism, RejectsNegativeFitOfNonnegativeData) {
  FittedFunction f{KernelType::kCubicLn, {1.0, -5.0, 0.0, 0.0}, 1.0};
  RealismOptions opts;
  opts.range_min = 1.0;
  opts.range_max = 48.0;
  EXPECT_FALSE(is_realistic(f, opts, 1.0, true));
  // But the same shape is fine when the data itself had negative values.
  EXPECT_TRUE(is_realistic(f, opts, 20.0, false));
}

// Regression (silent-candidate-loss bug): a RealismOptions::range_min of 0
// (a natural "from the start" value) used to send the CubicLn walk through
// log(n <= 0) -> NaN -> rejection, silently dropping perfectly good
// candidates. Core counts are positive, so the walk clamps to n >= 1.
TEST(Realism, CubicLnSurvivesZeroRangeMin) {
  auto xs = core_counts(10);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(10.0 + 2.0 * std::log(x));
  auto f = fit_kernel(KernelType::kCubicLn, xs, ys);
  ASSERT_TRUE(f.has_value());
  RealismOptions opts;
  opts.range_min = 0.0;
  opts.range_max = 48.0;
  EXPECT_TRUE(is_realistic(*f, opts, 15.0, true));
  // Negative range_min clamps the same way.
  opts.range_min = -3.0;
  EXPECT_TRUE(is_realistic(*f, opts, 15.0, true));
}

TEST(Realism, RejectsExplosion) {
  // 1e6 * n^2.5-ish growth against data max 1.0 exceeds the default factor.
  FittedFunction f{KernelType::kPoly25, {0.0, 0.0, 0.0, 1e6}, 1.0};
  RealismOptions opts;
  opts.range_min = 1.0;
  opts.range_max = 48.0;
  EXPECT_FALSE(is_realistic(f, opts, 1.0, true));
}

// --------------------------------------------------------------------------
// SoA batched path vs the scalar path: bit-identical by contract.

std::vector<double> saturating_series(const std::vector<double>& xs) {
  std::vector<double> ys;
  for (double x : xs) {
    ys.push_back(100.0 * x / (1.0 + 0.1 * x) + (std::fmod(x, 2.0) - 0.5));
  }
  return ys;
}

TEST(FitBatch, PrefixBatchMatchesScalarFitBitwise) {
  auto xs = core_counts(12);
  const auto ys = saturating_series(xs);
  EvalTables tables;
  tables.assign(xs);
  FitBatchWorkspace ws;
  for (std::size_t prefix = 2; prefix <= xs.size(); ++prefix) {
    std::array<std::optional<FittedFunction>, kAllKernels.size()> batch;
    for (std::size_t k = 0; k < kAllKernels.size(); ++k) {
      fit_kernel_over_prefixes(kAllKernels[k], xs, tables, ys, &prefix, 1, {},
                               ws, &batch[k]);
    }
    for (std::size_t k = 0; k < kAllKernels.size(); ++k) {
      const KernelType type = kAllKernels[k];
      const std::vector<double> pxs(xs.begin(), xs.begin() + prefix);
      const std::vector<double> pys(ys.begin(), ys.begin() + prefix);
      const auto scalar = fit_kernel(type, pxs, pys, {});
      ASSERT_EQ(batch[k].has_value(), scalar.has_value())
          << kernel_name(type) << " prefix=" << prefix;
      if (!scalar) continue;
      ASSERT_EQ(batch[k]->params.size(), scalar->params.size());
      for (std::size_t j = 0; j < scalar->params.size(); ++j) {
        EXPECT_EQ(batch[k]->params[j], scalar->params[j])
            << kernel_name(type) << " prefix=" << prefix << " param=" << j;
      }
      EXPECT_EQ(batch[k]->y_scale, scalar->y_scale)
          << kernel_name(type) << " prefix=" << prefix;
    }
  }
}

// The kernel-major entry point batches MANY prefixes (duplicates included)
// into one lockstep LM call; every per-prefix result must still be the
// scalar fit, bit for bit — the fit AND its FitDiag, the half of the fill
// contract the audit and the memo replay.
TEST(FitBatch, KernelMajorBatchMatchesScalarFitBitwise) {
  auto xs = core_counts(12);
  const auto ys = saturating_series(xs);
  EvalTables tables;
  tables.assign(xs);
  FitBatchWorkspace ws;
  const std::vector<std::size_t> prefixes = {3, 4, 5, 6, 7, 8, 9,
                                             10, 11, 12, 5, 8, 2};
  for (KernelType type : kAllKernels) {
    std::vector<std::optional<FittedFunction>> out(prefixes.size());
    std::vector<FitDiag> diags(prefixes.size());
    fit_kernel_over_prefixes(type, xs, tables, ys, prefixes.data(),
                             prefixes.size(), {}, ws, out.data(),
                             diags.data());
    for (std::size_t j = 0; j < prefixes.size(); ++j) {
      const std::vector<double> pxs(xs.begin(), xs.begin() + prefixes[j]);
      const std::vector<double> pys(ys.begin(), ys.begin() + prefixes[j]);
      FitDiag want;
      const auto scalar = fit_kernel(type, pxs, pys, {}, &want);
      const std::string where =
          kernel_name(type) + " prefix=" + std::to_string(prefixes[j]);
      const FitDiag& got = diags[j];
      EXPECT_EQ(got.path, want.path) << where;
      EXPECT_EQ(got.solved, want.solved) << where;
      ASSERT_EQ(got.starts.size(), want.starts.size()) << where;
      for (std::size_t i = 0; i < want.starts.size(); ++i) {
        const FitDiag::Start& g = got.starts[i];
        const FitDiag::Start& w = want.starts[i];
        EXPECT_EQ(g.rmse, w.rmse) << where << " start=" << i;  // bitwise
        EXPECT_EQ(g.iterations, w.iterations) << where << " start=" << i;
        EXPECT_EQ(g.model_evals, w.model_evals) << where << " start=" << i;
        EXPECT_EQ(g.term, w.term) << where << " start=" << i;
      }
      ASSERT_EQ(out[j].has_value(), scalar.has_value()) << where;
      if (!scalar) continue;
      for (std::size_t i = 0; i < scalar->params.size(); ++i) {
        EXPECT_EQ(out[j]->params[i], scalar->params[i]) << where;
      }
      EXPECT_EQ(out[j]->y_scale, scalar->y_scale) << where;
    }
  }
}

// realism_scan over precomputed walk panels must agree with is_realistic
// for every fit — including ones the filter rejects.
TEST(FitBatch, RealismScanMatchesIsRealistic) {
  RealismOptions opts;
  opts.range_min = 1.0;
  opts.range_max = 48.0;
  RealismGrid grid;
  grid.build(opts);

  std::vector<FittedFunction> fits = {
      {KernelType::kCubicLn, {1.0, 0.5, 0.0, 0.0}, 1.0},           // accept
      {KernelType::kRat22, {1.0, 0.0, 0.0, -0.05, 0.0}, 1.0},      // pole
      {KernelType::kCubicLn, {1.0, -5.0, 0.0, 0.0}, 1.0},          // negative
      {KernelType::kPoly25, {0.0, 0.0, 0.0, 1e6}, 1.0},            // explode
  };
  const std::size_t count = grid.tables.size();
  std::vector<double> vals(count), dens(count);
  for (const auto& f : fits) {
    // The walk values as the batched engine computes them: one panel over
    // the grid, then f(n) = y_scale * kernel_eval(n).
    kernel_eval_panel(f.type, grid.tables, count, f.params.data(), 1,
                      vals.data());
    for (double& v : vals) v = f.y_scale * v;
    kernel_denominator_panel(f.type, grid.tables, count, f.params.data(), 1,
                             dens.data());
    EXPECT_EQ(
        realism_scan(vals.data(), dens.data(), grid.steps, opts, 10.0, true),
        is_realistic(f, opts, 10.0, true))
        << kernel_name(f.type);
  }
}

class FitAllKernelsTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(FitAllKernelsTest, FitsItsOwnSamplesFinitely) {
  const KernelType type = GetParam();
  // Generate benign, positive, gently-saturating data from each kernel and
  // check self-fit produces finite values over the extrapolation range.
  std::vector<double> p(kernel_param_count(type), 0.0);
  p[0] = type == KernelType::kExpRat ? 1.0 : 5.0;
  if (p.size() > 1) p[1] = type == KernelType::kExpRat ? 0.05 : 0.3;
  auto xs = core_counts(12);
  std::vector<double> ys;
  for (double x : xs) ys.push_back(kernel_eval(type, x, p));
  auto f = fit_kernel(type, xs, ys);
  ASSERT_TRUE(f.has_value()) << kernel_name(type);
  for (int n = 1; n <= 48; ++n) {
    EXPECT_TRUE(std::isfinite((*f)(n))) << kernel_name(type) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, FitAllKernelsTest,
                         ::testing::ValuesIn(kAllKernels),
                         [](const ::testing::TestParamInfo<KernelType>& info) {
                           return kernel_name(info.param);
                         });

}  // namespace
}  // namespace estima::core
