// Shared helpers for the table/figure reproduction benches: compact table
// printing, flag parsing, bit-identity checks and common prediction
// plumbing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/measurement.hpp"
#include "core/predictor.hpp"
#include "obs/histogram.hpp"
#include "obs/json_writer.hpp"
#include "simmachine/machine.hpp"
#include "simmachine/presets.hpp"
#include "simmachine/simulator.hpp"

namespace estima::bench {

/// Per-operation latency accounting for the throughput benches, built on
/// the same obs::Histogram the serving layer exposes: record one duration
/// per operation, read the quantiles at the end. The log-bucketed
/// histogram keeps recording O(1) and allocation-free, so calling it
/// inside a timed loop does not distort the loop it measures.
class LatencyRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  void record(Clock::time_point start, Clock::time_point end) {
    hist_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count()));
  }
  void record_ns(std::uint64_t ns) { hist_.record(ns); }

  struct Stats {
    std::uint64_t count = 0;
    double p50_ms = 0, p90_ms = 0, p99_ms = 0, p999_ms = 0, mean_ms = 0;
  };
  Stats stats() const {
    const obs::Histogram::Snapshot snap = hist_.snapshot();
    Stats s;
    s.count = snap.count;
    if (snap.count == 0) return s;
    s.p50_ms = static_cast<double>(snap.quantile(0.50)) / 1e6;
    s.p90_ms = static_cast<double>(snap.quantile(0.90)) / 1e6;
    s.p99_ms = static_cast<double>(snap.quantile(0.99)) / 1e6;
    s.p999_ms = static_cast<double>(snap.quantile(0.999)) / 1e6;
    s.mean_ms = static_cast<double>(snap.sum) /
                static_cast<double>(snap.count) / 1e6;
    return s;
  }

 private:
  obs::Histogram hist_;
};

/// The host's logical core count (0 when unknown). Every BENCH_*.json
/// records it next to its "bench" key: a throughput or latency figure means
/// little without the hardware it was measured on.
inline unsigned host_cores() { return std::thread::hardware_concurrency(); }

/// Emits a LatencyRecorder's quantiles as a keyed object into an open
/// JSON object: "<key>": {"count":..., "p50_ms":..., ...}. Every
/// BENCH_*.json carries one of these per measured phase.
inline void write_latency_json(obs::JsonWriter& w, const std::string& key,
                               const LatencyRecorder& rec) {
  const LatencyRecorder::Stats s = rec.stats();
  w.begin_object(key);
  w.kv("count", s.count);
  w.kv("p50_ms", s.p50_ms, 4);
  w.kv("p90_ms", s.p90_ms, 4);
  w.kv("p99_ms", s.p99_ms, 4);
  w.kv("p999_ms", s.p999_ms, 4);
  w.kv("mean_ms", s.mean_ms, 4);
  w.end_object();
}

/// --name=value flag parsing shared by the throughput benches.
inline double parse_flag_d(int argc, char** argv, const char* name,
                           double dflt) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return dflt;
}

inline std::string parse_flag_s(int argc, char** argv, const char* name,
                                const std::string& dflt) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return dflt;
}

/// Bitwise equality of a Prediction's *answer* — everything the campaign
/// determines. The work-accounting fields (factor_stats, per-category
/// fits_executed / duplicate_fits_eliminated) are deliberately excluded:
/// they describe the computing run, not the answer. The throughput
/// benches exit non-zero on any mismatch, so this comparator is the
/// single place to extend when Prediction grows an answer field.
inline bool bit_identical(const core::Prediction& a,
                          const core::Prediction& b) {
  if (a.cores != b.cores) return false;
  if (a.time_s != b.time_s) return false;
  if (a.stalls_per_core != b.stalls_per_core) return false;
  if (a.freq_scale != b.freq_scale) return false;
  if (a.factor_fn.params != b.factor_fn.params) return false;
  if (a.factor_correlation != b.factor_correlation) return false;
  if (a.categories.size() != b.categories.size()) return false;
  for (std::size_t i = 0; i < a.categories.size(); ++i) {
    if (a.categories[i].values != b.categories[i].values) return false;
    if (a.categories[i].extrapolation.checkpoint_rmse !=
        b.categories[i].extrapolation.checkpoint_rmse) {
      return false;
    }
    if (a.categories[i].extrapolation.best.params !=
        b.categories[i].extrapolation.best.params) {
      return false;
    }
  }
  return true;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_series(const char* label, const std::vector<int>& cores,
                         const std::vector<double>& values) {
  std::printf("%-28s", label);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    std::printf(" %9.4g", values[i]);
  }
  std::printf("\n");
}

/// Subsamples a dense 1..N series at the given core counts for printing.
inline std::vector<double> at_cores(const std::vector<int>& all_cores,
                                    const std::vector<double>& values,
                                    const std::vector<int>& wanted) {
  std::vector<double> out;
  for (int w : wanted) {
    for (std::size_t i = 0; i < all_cores.size(); ++i) {
      if (all_cores[i] == w) {
        out.push_back(values[i]);
        break;
      }
    }
  }
  return out;
}

/// Standard experiment: simulate ground truth on `machine` for all cores,
/// measure the first `measure_cores`, predict to the full machine.
struct Experiment {
  core::MeasurementSet truth;      ///< full-machine simulation
  core::MeasurementSet measured;   ///< truncated to the measurement range
  core::Prediction estima;         ///< ESTIMA prediction
  core::Prediction time_extrap;    ///< baseline prediction
  core::PredictionError estima_err;
  core::PredictionError time_extrap_err;
};

inline Experiment run_experiment(const std::string& workload_name,
                                 const sim::MachineSpec& machine,
                                 int measure_cores,
                                 bool use_software = true,
                                 double dataset_scale = 1.0) {
  const auto wl = sim::presets::workload(workload_name);
  Experiment e;
  sim::SimOptions truth_opts;
  truth_opts.dataset_scale = dataset_scale;
  e.truth = sim::simulate(wl, machine, sim::all_core_counts(machine),
                          truth_opts);
  e.measured = e.truth.truncated(static_cast<std::size_t>(measure_cores));

  core::PredictionConfig cfg;
  cfg.target_cores = sim::all_core_counts(machine);
  cfg.use_software_stalls = use_software;
  cfg.dataset_scale = 1.0;  // measurement and truth share the dataset here
  e.estima = core::predict(e.measured, cfg);
  e.time_extrap = core::predict_time_extrapolation(e.measured, cfg);
  e.estima_err = core::evaluate_prediction(e.estima, e.truth);
  e.time_extrap_err = core::evaluate_prediction(e.time_extrap, e.truth);
  return e;
}

/// Cross-machine experiment (Section 4.3 / Table 7): measure on one
/// machine, predict and validate on another. Execution time is scaled by
/// the frequency ratio, exactly as the paper does.
inline Experiment run_cross_experiment(
    const std::string& workload_name, const sim::MachineSpec& measure_machine,
    const std::vector<int>& measure_counts,
    const sim::MachineSpec& target_machine, bool use_software = true,
    const core::ExtrapolationConfig* extrap_override = nullptr,
    double dataset_scale_target = 1.0) {
  const auto wl = sim::presets::workload(workload_name);
  Experiment e;
  e.measured = sim::simulate(wl, measure_machine, measure_counts);
  sim::SimOptions truth_opts;
  truth_opts.dataset_scale = dataset_scale_target;
  e.truth = sim::simulate(wl, target_machine,
                          sim::all_core_counts(target_machine), truth_opts);

  core::PredictionConfig cfg;
  cfg.target_cores = sim::all_core_counts(target_machine);
  cfg.target_freq_ghz = target_machine.freq_ghz;
  cfg.use_software_stalls = use_software;
  cfg.dataset_scale = dataset_scale_target;
  if (extrap_override) cfg.extrap = *extrap_override;
  e.estima = core::predict(e.measured, cfg);
  e.time_extrap = core::predict_time_extrapolation(e.measured, cfg);
  e.estima_err = core::evaluate_prediction(e.estima, e.truth);
  e.time_extrap_err = core::evaluate_prediction(e.time_extrap, e.truth);
  return e;
}

/// Workloads for which the paper also collects software stalls
/// (Section 5.3: the STAMP suite via SwissTM plus streamcluster, genome and
/// ssca2 via the pthread wrapper).
inline bool reports_software_stalls(const std::string& workload_name) {
  const auto wl = sim::presets::workload(workload_name);
  return wl.report_sw_stalls;
}

}  // namespace estima::bench
