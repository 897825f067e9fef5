#include "counters/sampler.hpp"

#include <chrono>
#include <cmath>
#include <limits>

#include "counters/perf.hpp"

namespace estima::counters {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double estimate_freq_ghz() {
  // Time a dependent-add spin of known iteration count. Each iteration is
  // one add on current cores, so iterations/second ~ frequency.
  volatile std::uint64_t acc = 0;
  constexpr std::uint64_t kIters = 200'000'000;
  const auto start = Clock::now();
  std::uint64_t local = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) local += i | 1;
  acc = local;
  (void)acc;
  const double secs = seconds_since(start);
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(kIters) / secs / 1e9;
}

core::MeasurementSet run_campaign(const std::string& workload_name,
                                  const ParallelRegion& region,
                                  const std::vector<int>& core_counts,
                                  const SamplerOptions& opts) {
  core::MeasurementSet ms;
  ms.workload = workload_name;
  ms.machine = "native";
  ms.freq_ghz = opts.freq_ghz > 0.0 ? opts.freq_ghz : estimate_freq_ghz();

  // Discover category set lazily from the first run.
  std::map<std::string, std::vector<double>> sw_series;
  std::map<std::string, std::vector<double>> hw_series;
  std::map<std::string, core::StallDomain> hw_domains;

  for (int n : core_counts) {
    double best_time = std::numeric_limits<double>::infinity();
    RunReport best_report;
    std::vector<StallCounterGroup::Reading> best_hw;

    for (int rep = 0; rep < std::max(1, opts.repetitions); ++rep) {
      StallCounterGroup group(opts.arch, opts.include_frontend);
      group.reset_all();
      group.enable_all();
      const auto start = Clock::now();
      RunReport report = region(n);
      const double secs = seconds_since(start);
      group.disable_all();
      if (secs < best_time) {
        best_time = secs;
        best_report = std::move(report);
        best_hw = group.read_all();
      }
    }

    ms.cores.push_back(n);
    ms.time_s.push_back(best_time);

    for (const auto& [cat, cycles] : best_report.software_stalls) {
      sw_series[cat].push_back(cycles);
    }
    for (const auto& r : best_hw) {
      if (!r.valid) continue;
      hw_series[r.category].push_back(static_cast<double>(r.value));
      hw_domains[r.category] = r.stage == EventStage::kFrontend
                                   ? core::StallDomain::kHardwareFrontend
                                   : core::StallDomain::kHardwareBackend;
    }
  }

  // Emit categories whose series covers every measured point (categories
  // appearing mid-campaign would misalign).
  for (auto& [name, values] : hw_series) {
    if (values.size() != ms.cores.size()) continue;
    ms.categories.push_back(
        core::StallSeries{name, hw_domains[name], std::move(values)});
  }
  for (auto& [name, values] : sw_series) {
    if (values.size() != ms.cores.size()) continue;
    ms.categories.push_back(core::StallSeries{
        name, core::StallDomain::kSoftware, std::move(values)});
  }
  return ms;
}

}  // namespace estima::counters
