// google-benchmark microbenchmarks for the numeric/fitting hot paths:
// kernel evaluation, single-kernel fits, the full checkpoint selection, the
// simulator, and an end-to-end prediction. These guard the tool's own
// performance (a full 21-workload campaign sweep runs thousands of fits).
#include <benchmark/benchmark.h>

#include <optional>

#include "core/extrapolator.hpp"
#include "core/fit_engine.hpp"
#include "core/predictor.hpp"
#include "simmachine/machine.hpp"
#include "simmachine/presets.hpp"
#include "simmachine/simulator.hpp"

namespace {

using namespace estima;

std::vector<double> sample_xs(int m) {
  std::vector<double> xs;
  for (int i = 1; i <= m; ++i) xs.push_back(i);
  return xs;
}

std::vector<double> sample_ys(const std::vector<double>& xs) {
  std::vector<double> ys;
  for (double x : xs) ys.push_back(100.0 * x / (1.0 + 0.08 * x));
  return ys;
}

void BM_KernelEval(benchmark::State& state) {
  const auto type = core::kAllKernels[static_cast<std::size_t>(state.range(0))];
  std::vector<double> p(core::kernel_param_count(type), 0.01);
  p[0] = 1.0;
  double n = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::kernel_eval(type, n, p));
    n = n < 48.0 ? n + 1.0 : 1.0;
  }
}
BENCHMARK(BM_KernelEval)->DenseRange(0, 5);

// One kernel fitted to one 12-point prefix by the production fitter.
void BM_FitKernel(benchmark::State& state) {
  const auto type = core::kAllKernels[static_cast<std::size_t>(state.range(0))];
  const auto xs = sample_xs(12);
  const auto ys = sample_ys(xs);
  core::EvalTables tables;
  tables.assign(xs);
  core::FitBatchWorkspace ws;
  const std::size_t prefix = xs.size();
  std::optional<core::FittedFunction> fit;
  for (auto _ : state) {
    core::fit_kernel_over_prefixes(type, xs, tables, ys, &prefix, 1, {}, ws,
                                   &fit);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_FitKernel)->DenseRange(0, 5);

void BM_ExtrapolateSeries(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto xs = sample_xs(m);
  const auto ys = sample_ys(xs);
  std::vector<int> cores(xs.begin(), xs.end());
  core::ExtrapolationConfig cfg;
  cfg.target_max_cores = 48;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extrapolate_series(cores, ys, cfg));
  }
}
BENCHMARK(BM_ExtrapolateSeries)->Arg(8)->Arg(12)->Arg(20);

void BM_SimulateCampaign(benchmark::State& state) {
  const auto wl = sim::presets::workload("intruder");
  const auto m = sim::opteron48();
  const auto cores = sim::all_core_counts(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(wl, m, cores));
  }
}
BENCHMARK(BM_SimulateCampaign);

void BM_FullPrediction(benchmark::State& state) {
  const auto wl = sim::presets::workload("intruder");
  const auto machine = sim::opteron48();
  const auto measured =
      sim::simulate(wl, machine, sim::all_core_counts(machine)).truncated(12);
  core::PredictionConfig cfg;
  cfg.target_cores = sim::all_core_counts(machine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::predict(measured, cfg));
  }
}
BENCHMARK(BM_FullPrediction);

}  // namespace

BENCHMARK_MAIN();
