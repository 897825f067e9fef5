// Shared helpers for the benches: compact table printing, bit-identity
// checks, common prediction plumbing, and the throughput benches' campaign
// generator, overhead meter and JSON output.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
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
#include "simmachine/synthetic.hpp"

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

/// Steady-clock seconds elapsed since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Writes a finished JSON document to `path` and says so on stdout;
/// throws std::runtime_error when the file cannot be opened.
inline void write_json_file(const std::string& path,
                            const obs::JsonWriter& w) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fputs(w.str().c_str(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
}

/// The serving benches' synthetic campaign `seed` (cores 1..points):
/// memory rate, serial fraction and STM aborts vary with the seed, so
/// distinct seeds are distinct campaigns. `tag` prefixes the campaign
/// name.
inline core::MeasurementSet make_campaign(int seed, int points,
                                          const std::string& tag) {
  sim::SyntheticSpec spec;
  spec.mem_rate = 0.25 + 0.02 * (seed % 7);
  spec.serial_frac = 0.005 + 0.0015 * (seed % 5);
  spec.stm_rate = seed % 2 ? 1e-4 : 0.0;
  spec.noise = 0.02;
  const std::string name = tag + "-campaign-" + std::to_string(seed);
  return sim::make_synthetic(spec, sim::counts_up_to(points), name.c_str());
}

/// The median of `v` (reordered in place; 0 when empty).
inline double median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The distance between the quartiles of `v`.
inline double iqr(const std::vector<double>& v) {
  return quantile(v, 0.75) - quantile(v, 0.25);
}

/// What tracing adds to one operation, as interleaved_overhead measures it.
struct Overhead {
  double untraced_ns = 0.0;      ///< median over rounds of the trimmed mean
  double untraced_iqr_ns = 0.0;  ///< IQR over rounds of the trimmed mean
  double traced_ns = 0.0;        ///< median over rounds of the trimmed mean
  double traced_iqr_ns = 0.0;    ///< IQR over rounds of the trimmed mean
  double overhead_pct = 0.0;     ///< median over rounds of traced vs untraced
};

/// The observability-overhead meter every serving bench uses. `untraced`
/// and `traced` each run one operation (a warm batch, an HTTP request) on
/// the step index they are given; within a `window_s` window both sides
/// run every step, in ABBA order — untraced first on even steps, traced
/// first on odd ones — so each side follows the other onto the state it
/// just warmed equally often, and scheduler stalls and frequency wander
/// land on both sides alike. Each side's slowest 10% is trimmed before
/// comparing means: one preempted operation must not masquerade as
/// tracing cost. The window runs kRounds times and the medians are
/// reported beside each side's IQR over rounds, so one noisy window cannot
/// move the figure and a wide spread shows.
template <typename Untraced, typename Traced>
Overhead interleaved_overhead(Untraced&& untraced, Traced&& traced,
                              double window_s) {
  constexpr int kRounds = 5;
  const auto timed_ns = [](auto& op, std::size_t step) {
    const auto t0 = std::chrono::steady_clock::now();
    op(step);
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto trimmed_mean = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const std::size_t keep = std::max<std::size_t>(1, v.size() * 9 / 10);
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) sum += v[i];
    return sum / static_cast<double>(keep);
  };
  std::vector<double> untraced_ns, traced_ns, pct;
  std::size_t step = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> u, t;
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < window_s) {
      if (step % 2 == 0) {
        u.push_back(timed_ns(untraced, step));
        t.push_back(timed_ns(traced, step));
      } else {
        t.push_back(timed_ns(traced, step));
        u.push_back(timed_ns(untraced, step));
      }
      ++step;
    }
    untraced_ns.push_back(trimmed_mean(u));
    traced_ns.push_back(trimmed_mean(t));
    pct.push_back(100.0 * (traced_ns.back() - untraced_ns.back()) /
                  untraced_ns.back());
  }
  return {median(untraced_ns), iqr(untraced_ns), median(traced_ns),
          iqr(traced_ns), median(pct)};
}

/// Emits an Overhead into an open JSON object: obs_overhead_pct (the
/// figure CI gates) and each side's per-operation median and IQR over
/// rounds.
inline void write_overhead_json(obs::JsonWriter& w, const Overhead& o) {
  w.kv("obs_overhead_pct", o.overhead_pct, 2);
  w.kv("obs_untraced_ns_median", o.untraced_ns, 1);
  w.kv("obs_untraced_ns_iqr", o.untraced_iqr_ns, 1);
  w.kv("obs_traced_ns_median", o.traced_ns, 1);
  w.kv("obs_traced_ns_iqr", o.traced_iqr_ns, 1);
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
