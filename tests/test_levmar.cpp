#include "numeric/levmar.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "numeric/rng.hpp"
#include "oracle/scalar_fit.hpp"

namespace estima::numeric {
namespace {

// Runs the LM engine on a point-at-a-time model: wraps it into the
// BatchModelFn the engine takes, with default options and a fresh
// workspace.
template <typename Model>
LevMarResult fit_scalar_model(const Model& model, const std::vector<double>& xs,
                              const std::vector<double>& ys,
                              std::vector<double> initial) {
  const BatchModelFn batch = [&model](const std::vector<double>& bxs,
                                      const std::vector<double>& p,
                                      std::vector<double>& out) {
    out.resize(bxs.size());
    for (std::size_t i = 0; i < bxs.size(); ++i) out[i] = model(bxs[i], p);
  };
  LevMarWorkspace ws;
  return levenberg_marquardt(batch, xs, ys, std::move(initial), {}, ws);
}

TEST(LevMar, RecoversExponentialDecay) {
  // y = 5 * exp(-0.3 x)
  auto model = [](double x, const std::vector<double>& p) {
    return p[0] * std::exp(p[1] * x);
  };
  std::vector<double> xs, ys;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(i);
    ys.push_back(5.0 * std::exp(-0.3 * i));
  }
  auto r = fit_scalar_model(model, xs, ys, {1.0, -0.1});
  EXPECT_NEAR(r.params[0], 5.0, 1e-5);
  EXPECT_NEAR(r.params[1], -0.3, 1e-6);
  EXPECT_LT(r.rmse, 1e-7);
}

TEST(LevMar, RecoversRationalFunction) {
  // y = (1 + 2x) / (1 + 0.5x)
  auto model = [](double x, const std::vector<double>& p) {
    return (p[0] + p[1] * x) / (1.0 + p[2] * x);
  };
  std::vector<double> xs, ys;
  for (int i = 1; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back((1.0 + 2.0 * i) / (1.0 + 0.5 * i));
  }
  auto r = fit_scalar_model(model, xs, ys, {0.5, 1.0, 0.1});
  EXPECT_NEAR(r.params[0], 1.0, 1e-4);
  EXPECT_NEAR(r.params[1], 2.0, 1e-4);
  EXPECT_NEAR(r.params[2], 0.5, 1e-4);
}

TEST(LevMar, ToleratesNoisyData) {
  auto model = [](double x, const std::vector<double>& p) {
    return p[0] + p[1] * x;
  };
  SplitMix64 rng(42);
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 0.7 * i + 0.01 * rng.next_gaussian());
  }
  auto r = fit_scalar_model(model, xs, ys, {0.0, 0.0});
  EXPECT_NEAR(r.params[0], 3.0, 0.05);
  EXPECT_NEAR(r.params[1], 0.7, 0.01);
}

TEST(LevMar, HandlesPoleInStartingPoint) {
  // Model has a pole at x = 1/p[0]; start so the pole sits inside the data.
  auto model = [](double x, const std::vector<double>& p) {
    return 1.0 / (1.0 - p[0] * x);
  };
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(1.0 / (1.0 + 0.1 * x));
  auto r = fit_scalar_model(model, xs, ys, {0.5});  // pole at x=2
  EXPECT_TRUE(std::isfinite(r.rmse));
  EXPECT_NEAR(r.params[0], -0.1, 1e-3);
}

TEST(LevMar, EmptyInputIsNoop) {
  auto model = [](double, const std::vector<double>&) { return 0.0; };
  auto r = fit_scalar_model(model, {}, {}, {1.0});
  EXPECT_EQ(r.iterations, 0);
  EXPECT_DOUBLE_EQ(r.params[0], 1.0);
}

TEST(LevMar, PerfectInitialGuessStaysPut) {
  auto model = [](double x, const std::vector<double>& p) {
    return p[0] * x;
  };
  std::vector<double> xs{1.0, 2.0, 3.0};
  std::vector<double> ys{2.0, 4.0, 6.0};
  auto r = fit_scalar_model(model, xs, ys, {2.0});
  EXPECT_NEAR(r.params[0], 2.0, 1e-10);
  EXPECT_LT(r.rmse, 1e-10);
}

// --------------------------------------------------------------------------
// Lockstep multi-problem engine vs the sequential engine. The shared model
// is a quadratic evaluated with the SAME expression in both the sequential
// BatchModelFn and the panel callback, so any difference in results can
// only come from the engines themselves — which must be bit-identical.

constexpr std::size_t kQuadParams = 3;

double quad_point(double x, const double* p) {
  return p[0] + p[1] * x + p[2] * (x * x);
}

struct QuadPanelCtx {
  const std::vector<double>* grid;
};

void quad_panel_eval(const void* vctx, const double* panel,
                     const std::size_t* ms, std::size_t n_sets, double* out,
                     std::size_t out_stride) {
  const auto* c = static_cast<const QuadPanelCtx*>(vctx);
  const std::vector<double>& grid = *c->grid;
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * kQuadParams;
    const std::size_t m = ms != nullptr ? ms[s] : grid.size();
    double* row = out + s * out_stride;
    for (std::size_t i = 0; i < m; ++i) row[i] = quad_point(grid[i], p);
  }
}

TEST(LevMarMulti, MatchesSequentialBitwise) {
  // Shared input grid; problems fit different prefixes of different
  // observation series from different starts — the shape of one kernel's
  // enumeration batch.
  std::vector<double> grid;
  for (int i = 1; i <= 12; ++i) grid.push_back(i);

  const std::vector<std::size_t> prefix_lens = {12, 5, 9, 3};
  const std::vector<std::vector<double>> start_list = {
      {0.0, 0.0, 0.0}, {1.0, -0.5, 0.01}};

  std::vector<double> ys_all;
  std::vector<std::size_t> ys_off, prob_m;
  std::vector<double> starts_flat;
  struct SeqProblem {
    std::vector<double> xs, ys, start;
  };
  std::vector<SeqProblem> seq;
  for (std::size_t pi = 0; pi < prefix_lens.size(); ++pi) {
    const std::size_t m = prefix_lens[pi];
    std::vector<double> ys(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double x = grid[i];
      // Different curvature per series so trajectories differ.
      ys[i] = 2.0 + 0.3 * x + 0.05 * (pi + 1) * x * x +
              ((i % 2 == 0) ? 0.01 : -0.01);
    }
    const std::size_t off = ys_all.size();
    ys_all.insert(ys_all.end(), ys.begin(), ys.end());
    for (const auto& st : start_list) {
      starts_flat.insert(starts_flat.end(), st.begin(), st.end());
      prob_m.push_back(m);
      ys_off.push_back(off);
      seq.push_back({std::vector<double>(grid.begin(), grid.begin() + m), ys,
                     st});
    }
  }

  const auto batch_model = [](const std::vector<double>& bxs,
                              const std::vector<double>& p,
                              std::vector<double>& out) {
    for (std::size_t i = 0; i < bxs.size(); ++i) {
      out[i] = quad_point(bxs[i], p.data());
    }
  };

  LevMarOptions opts;
  QuadPanelCtx ctx{&grid};
  PanelModel model{&quad_panel_eval, &ctx, kQuadParams, grid.size()};
  MultiLevMarWorkspace mws;
  std::vector<LevMarResult> multi(seq.size());
  levenberg_marquardt_multi(model, ys_all.data(), ys_off.data(),
                            prob_m.data(), starts_flat.data(), seq.size(),
                            opts, mws, multi.data());

  LevMarWorkspace sws;
  for (std::size_t s = 0; s < seq.size(); ++s) {
    const auto r =
        levenberg_marquardt(batch_model, seq[s].xs, seq[s].ys, seq[s].start,
                            opts, sws);
    ASSERT_EQ(multi[s].params.size(), r.params.size()) << "problem " << s;
    for (std::size_t j = 0; j < r.params.size(); ++j) {
      EXPECT_EQ(multi[s].params[j], r.params[j])
          << "problem " << s << " param " << j;
    }
    EXPECT_EQ(multi[s].rmse, r.rmse) << "problem " << s;
    EXPECT_EQ(multi[s].iterations, r.iterations) << "problem " << s;
    EXPECT_EQ(multi[s].converged, r.converged) << "problem " << s;
    EXPECT_EQ(multi[s].model_evals, r.model_evals) << "problem " << s;
  }
}

// Poles and non-finite evaluations must take the same nudge/backoff path
// in both engines.
struct PolePanelCtx {
  const std::vector<double>* grid;
};

double pole_point(double x, const double* p) {
  return 1.0 / (1.0 - p[0] * x);
}

void pole_panel_eval(const void* vctx, const double* panel,
                     const std::size_t* ms, std::size_t n_sets, double* out,
                     std::size_t out_stride) {
  const auto* c = static_cast<const PolePanelCtx*>(vctx);
  const std::vector<double>& grid = *c->grid;
  for (std::size_t s = 0; s < n_sets; ++s) {
    const std::size_t m = ms != nullptr ? ms[s] : grid.size();
    double* row = out + s * out_stride;
    for (std::size_t i = 0; i < m; ++i) row[i] = pole_point(grid[i], panel + s);
  }
}

TEST(LevMarMulti, PoleBackoffMatchesSequentialBitwise) {
  std::vector<double> grid{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (double x : grid) ys.push_back(1.0 / (1.0 + 0.1 * x));

  const auto batch_model = [](const std::vector<double>& bxs,
                              const std::vector<double>& p,
                              std::vector<double>& out) {
    for (std::size_t i = 0; i < bxs.size(); ++i) {
      out[i] = pole_point(bxs[i], p.data());
    }
  };

  // Start 0.5 puts the pole at x = 2, inside the data: the first
  // evaluation is non-finite and the nudge loop must engage identically.
  const std::vector<double> starts = {0.5, -0.05};
  const std::vector<std::size_t> prob_m = {grid.size(), grid.size()};
  const std::vector<std::size_t> ys_off = {0, 0};

  LevMarOptions opts;
  PolePanelCtx ctx{&grid};
  PanelModel model{&pole_panel_eval, &ctx, 1, grid.size()};
  MultiLevMarWorkspace mws;
  std::vector<LevMarResult> multi(2);
  levenberg_marquardt_multi(model, ys.data(), ys_off.data(), prob_m.data(),
                            starts.data(), 2, opts, mws, multi.data());

  LevMarWorkspace sws;
  for (std::size_t s = 0; s < 2; ++s) {
    const auto r = levenberg_marquardt(batch_model, grid, ys, {starts[s]},
                                       opts, sws);
    EXPECT_EQ(multi[s].params[0], r.params[0]) << "start " << s;
    EXPECT_EQ(multi[s].rmse, r.rmse) << "start " << s;
    EXPECT_EQ(multi[s].iterations, r.iterations) << "start " << s;
    EXPECT_EQ(multi[s].model_evals, r.model_evals) << "start " << s;
  }
}

TEST(LevMarMulti, ZeroPointProblemMatchesSequentialNoop) {
  std::vector<double> grid{1.0, 2.0};
  std::vector<double> ys{1.0, 2.0};
  const std::vector<double> starts = {3.5, 1.25};  // two 1-param problems
  const std::vector<std::size_t> prob_m = {0, grid.size()};
  const std::vector<std::size_t> ys_off = {0, 0};

  LevMarOptions opts;
  PolePanelCtx ctx{&grid};
  PanelModel model{&pole_panel_eval, &ctx, 1, grid.size()};
  MultiLevMarWorkspace mws;
  std::vector<LevMarResult> multi(2);
  levenberg_marquardt_multi(model, ys.data(), ys_off.data(), prob_m.data(),
                            starts.data(), 2, opts, mws, multi.data());

  // The empty problem keeps its start untouched, exactly like the
  // sequential engine's empty-input early return.
  EXPECT_DOUBLE_EQ(multi[0].params[0], 3.5);
  EXPECT_EQ(multi[0].iterations, 0);
  EXPECT_DOUBLE_EQ(multi[0].rmse, 0.0);
  EXPECT_EQ(multi[0].model_evals, 0u);
  // And its presence does not perturb the live problem beside it.
  const auto batch_model = [](const std::vector<double>& bxs,
                              const std::vector<double>& p,
                              std::vector<double>& out) {
    for (std::size_t i = 0; i < bxs.size(); ++i) {
      out[i] = pole_point(bxs[i], p.data());
    }
  };
  LevMarWorkspace sws;
  const auto r =
      levenberg_marquardt(batch_model, grid, ys, {1.25}, opts, sws);
  EXPECT_EQ(multi[1].params[0], r.params[0]);
  EXPECT_EQ(multi[1].rmse, r.rmse);
}

}  // namespace
}  // namespace estima::numeric
