// Declarations shared by the benchmark's translation units.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "core/predictor.hpp"
#include "inputs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The prediction config the daemon serves under (its defaults with
/// --target=48): in-process answers must be computed under exactly this.
estima::core::PredictionConfig daemon_prediction_config();

/// Traced mode's in-process half: replays the plan's inputs through each
/// layer's public functions, appending spans (times relative to `origin`)
/// and the per-layer metrics. Returns the median in-process
/// ServiceRouter::handle time, in microseconds, for the request kind the
/// workload's latency is measured on.
double replay_layers(const Plan& plan, Clock::time_point origin,
                     std::vector<Span>& spans, std::vector<Metric>& out);

/// Checks the benchmark's own arithmetic and input generation; prints each
/// failure to stderr and returns the number of failures.
int run_selftests();

}  // namespace perfbench
