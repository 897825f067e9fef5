// End-to-end predict() throughput microbenchmark.
//
// Tracks the perf trajectory of the fitting hot path: a production-scale
// predictor reruns the candidate-enumeration loop (Section 3.1) for many
// applications, so the pipeline's own speed is a first-class metric. Four
// modes are measured:
//   baseline  — one predict() per checkpoint setting on the scalar oracle
//               (tests/oracle/, plugged in through ExecContext::engine),
//               no pool: every setting refits every (kernel, prefix)
//               pair, so one fit_kernel call runs per candidate, exactly
//               the pre-optimization pipeline shape. One baseline
//               "prediction" is the whole sweep of settings. The bench
//               exits 3 if the baseline ever shares a fit, since the
//               speedup bar is measured against it;
//   scalar    — one predict() over every setting, still the scalar
//               oracle: each (kernel, prefix) pair is fitted once and
//               re-scored per setting, which isolates the sharing win
//               from the SoA win;
//   memoized  — the same with the library's one engine (batched SoA
//               panels, lockstep multi-LM, panel realism walks),
//               single-threaded;
//   parallel  — the library engine, each prediction's fit jobs fanned
//               out across a pool.
// The last three produce bit-identical predictions.
//
// The modes run in 5 interleaved rounds (each mode seconds/5 per round),
// so frequency wander and neighbours' load land on every mode alike. The
// end-to-end speedup is the median over rounds of the fastest mode's rate
// over the baseline's rate in the same round. Each parallel round also
// records the pool's delivered parallelism, process CPU time over wall
// time (parallel_cpu_per_wall in the JSON, per round and median): a
// speedup read on a host that delivered ~1 core says nothing about the
// pool, and this figure shows when that happened.
//
// Reports predictions/sec, fits/sec and LM kernel point-evals/sec per
// mode, the duplicate-fits-eliminated counter, and a bit-identical
// cross-check of single- vs multi-threaded output, as JSON to
// BENCH_fit_throughput.json (and human-readable text to stdout).
//
// Flags:
//   --seconds=S   measurement time per mode, all rounds (default 2.0)
//   --threads=N   pool size for the parallel mode   (default: hardware)
//   --points=M    measured core counts 1..M         (default 14)
//   --target=T    extrapolation horizon             (default 64)
//   --ckmax=C     checkpoint settings swept, 1..C   (default 5)
//   --out=PATH    JSON output path                  (default BENCH_fit_throughput.json)
//   --mode=NAME   restrict to baseline|scalar|memoized|parallel (default: all)
// An unknown, repeated or malformed flag is an error (exit 1).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/predictor.hpp"
#include "examples/cli_flags.hpp"
#include "oracle/scalar_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "simmachine/synthetic.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using estima::bench::bit_identical;

constexpr int kRounds = 5;

struct ModeResult {
  std::string name;
  std::vector<estima::core::PredictionConfig> cfgs;
  estima::core::ExecContext ctx;
  double predictions_per_sec = 0.0;  ///< over all rounds
  std::vector<double> round_rates;   ///< predictions/sec in each round
  /// Process CPU seconds per wall second in each round.
  std::vector<double> round_cpu_per_wall;
  int iterations = 0;
  double seconds = 0.0;
  std::size_t fits_executed = 0;
  std::size_t duplicate_fits_eliminated = 0;
  std::size_t candidates_considered = 0;
  std::size_t levmar_point_evals = 0;
  estima::bench::LatencyRecorder latency;  ///< one sample per predict()
};

estima::core::PredictionConfig make_config(int target, int ckmax) {
  estima::core::PredictionConfig cfg;
  cfg.target_cores = estima::core::cores_up_to(target);
  // A production-style sweep over checkpoint settings 1..ckmax: the fit of
  // a (kernel, prefix) pair is shared by all of them, which is exactly
  // what the memoization exploits.
  cfg.extrap.checkpoint_counts.clear();
  for (int c = 1; c <= ckmax; ++c) cfg.extrap.checkpoint_counts.push_back(c);
  return cfg;
}

// The baseline's configs: `cfg` split into one config per checkpoint
// setting that leaves enough points to fit, so no fit is shared between
// settings.
std::vector<estima::core::PredictionConfig> per_setting_configs(
    const estima::core::PredictionConfig& cfg, int points) {
  std::vector<estima::core::PredictionConfig> out;
  for (int c : cfg.extrap.checkpoint_counts) {
    if (points - c < cfg.extrap.min_prefix) continue;
    out.push_back(cfg);
    out.back().extrap.checkpoint_counts = {c};
  }
  if (out.empty()) {
    throw std::invalid_argument(
        "no checkpoint setting leaves enough points to fit");
  }
  return out;
}

// How a mode executes: the fill (null = the library's) and the pool.
// Neither can change the answer.
estima::core::ExecContext make_context(estima::core::FitFillFn engine,
                                       estima::parallel::ThreadPool* pool) {
  estima::core::ExecContext ctx(pool);
  ctx.engine = engine;
  return ctx;
}

// Adds the per-category fit accounting of one prediction (plus the
// scaling-factor enumeration's LM evaluations, which run the same fit
// machinery).
void accumulate_stats(const estima::core::Prediction& pred, ModeResult* r) {
  r->levmar_point_evals += pred.factor_stats.levmar_point_evals;
  for (const auto& cp : pred.categories) {
    r->fits_executed += cp.extrapolation.fits_executed;
    r->duplicate_fits_eliminated += cp.extrapolation.duplicate_fits_eliminated;
    r->candidates_considered += cp.extrapolation.candidates_considered;
    r->levmar_point_evals += cp.extrapolation.levmar_point_evals;
  }
}

// A mode whose one timed operation runs predict() once per config in
// `cfgs`, warmed up (thread-local LM workspaces, allocator pools, page
// faults) by one untimed operation that also supplies its fit accounting.
ModeResult make_mode(const std::string& name,
                     const estima::core::MeasurementSet& ms,
                     std::vector<estima::core::PredictionConfig> cfgs,
                     const estima::core::ExecContext& ctx) {
  ModeResult r;
  r.name = name;
  r.cfgs = std::move(cfgs);
  r.ctx = ctx;
  for (const auto& cfg : r.cfgs) {
    accumulate_stats(estima::core::predict(ms, cfg, r.ctx), &r);
  }
  return r;
}

/// CPU time consumed so far by every thread of this process, in seconds.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// One round of a mode: operations until the round is `seconds` long and
// has run three of them.
void run_round(const estima::core::MeasurementSet& ms, double seconds,
               ModeResult* r) {
  double sink = 0.0;  // defeat dead-code elimination
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  int iters = 0;
  double el = 0.0;
  while (el < seconds || iters < 3) {
    const auto op_start = Clock::now();
    for (const auto& cfg : r->cfgs) {
      sink += estima::core::predict(ms, cfg, r->ctx).time_s.back();
    }
    r->latency.record(op_start, Clock::now());
    ++iters;
    el = estima::bench::seconds_since(start);
  }
  r->iterations += iters;
  r->seconds += el;
  r->round_rates.push_back(iters / el);
  r->round_cpu_per_wall.push_back((process_cpu_seconds() - cpu_start) / el);
  r->predictions_per_sec = r->iterations / r->seconds;
  if (!std::isfinite(sink)) std::printf("(non-finite sink)\n");
}

}  // namespace

int run_bench(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    // Degenerate flag combinations (e.g. too few measured points for any
    // checkpoint setting) surface as predict() exceptions; report cleanly.
    std::fprintf(stderr, "fit_throughput: %s\n", e.what());
    return 1;
  }
}

int run_bench(int argc, char** argv) {
  estima::examples::Flags flags(argc, argv);
  const double seconds = flags.number("seconds", 2.0);
  const int points = flags.integer("points", 14);
  const int target = flags.integer("target", 64);
  const int ckmax = flags.integer("ckmax", 5);
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads =
      flags.integer("threads", hw > 0 ? static_cast<int>(hw) : 1);
  const std::string out_path = flags.str("out", "BENCH_fit_throughput.json");
  const std::string only_mode = flags.str("mode", "all");
  if (const auto err = flags.error()) throw std::invalid_argument(*err);
  if (only_mode != "all" && only_mode != "baseline" && only_mode != "scalar" &&
      only_mode != "memoized" && only_mode != "parallel") {
    std::fprintf(
        stderr,
        "unknown --mode=%s (expected all|baseline|scalar|memoized|parallel)\n",
        only_mode.c_str());
    return 1;
  }

  // A three-category synthetic campaign (two hardware series + software
  // aborts) with mild contention growth and noise — representative of the
  // paper's STAMP-style inputs.
  estima::sim::SyntheticSpec spec;
  spec.stm_rate = 1e-4;
  spec.noise = 0.02;
  const auto ms =
      estima::sim::make_synthetic(spec, estima::sim::counts_up_to(points));

  estima::parallel::ThreadPool pool(static_cast<std::size_t>(
      threads > 0 ? threads : 1));

  std::printf("fit_throughput: %d measured points, horizon %d cores, "
              "%d pool threads, %.1fs per mode\n",
              points, target, threads, seconds);

  const estima::core::PredictionConfig cfg = make_config(target, ckmax);
  std::vector<ModeResult> results;
  const bool all = only_mode == "all";
  const estima::core::FitFillFn oracle = &estima::core::scalar_fill;
  if (all || only_mode == "baseline") {
    results.push_back(make_mode("baseline", ms,
                                per_setting_configs(cfg, points),
                                make_context(oracle, nullptr)));
  }
  if (all || only_mode == "scalar") {
    results.push_back(
        make_mode("scalar", ms, {cfg}, make_context(oracle, nullptr)));
  }
  if (all || only_mode == "memoized") {
    results.push_back(
        make_mode("memoized", ms, {cfg}, make_context(nullptr, nullptr)));
  }
  if (all || only_mode == "parallel") {
    results.push_back(
        make_mode("parallel", ms, {cfg}, make_context(nullptr, &pool)));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (auto& r : results) run_round(ms, seconds / kRounds, &r);
  }

  for (const auto& r : results) {
    const auto ls = r.latency.stats();
    std::printf("  %-9s %8.2f predictions/s  (%d iters in %.2fs)  "
                "fits=%zu dup_eliminated=%zu\n",
                r.name.c_str(), r.predictions_per_sec, r.iterations,
                r.seconds, r.fits_executed, r.duplicate_fits_eliminated);
    std::printf("  %-9s %8.0f fits/s  %.3g LM point-evals/s\n", "",
                static_cast<double>(r.fits_executed) * r.predictions_per_sec,
                static_cast<double>(r.levmar_point_evals) *
                    r.predictions_per_sec);
    std::printf("  %-9s latency p50 %.3fms p90 %.3fms p99 %.3fms "
                "p999 %.3fms\n",
                "", ls.p50_ms, ls.p90_ms, ls.p99_ms, ls.p999_ms);
  }

  const ModeResult* baseline = nullptr;
  const ModeResult* fastest = nullptr;
  for (const auto& r : results) {
    if (r.name == "baseline") baseline = &r;
    if (!fastest || r.predictions_per_sec > fastest->predictions_per_sec) {
      fastest = &r;
    }
  }
  // The speedup bar is only meaningful against a baseline that executes
  // one fit per candidate.
  const bool baseline_unshared =
      baseline == nullptr ||
      (baseline->fits_executed == baseline->candidates_considered &&
       baseline->duplicate_fits_eliminated == 0);
  if (!baseline_unshared) {
    std::fprintf(stderr,
                 "fit_throughput: baseline shares fits (%zu fits for %zu "
                 "candidates, %zu duplicates eliminated)\n",
                 baseline->fits_executed, baseline->candidates_considered,
                 baseline->duplicate_fits_eliminated);
  }
  double speedup = 0.0;
  if (baseline && fastest) {
    std::vector<double> ratios;
    for (int round = 0; round < kRounds; ++round) {
      ratios.push_back(fastest->round_rates[round] /
                       baseline->round_rates[round]);
    }
    speedup = estima::bench::median(ratios);
    std::printf("  end-to-end speedup (%s vs baseline, median of %d "
                "rounds): %.2fx (rounds %.2fx..%.2fx)\n",
                fastest->name.c_str(), kRounds, speedup, ratios.front(),
                ratios.back());
  }

  std::vector<double> parallel_cpu_per_wall;
  for (const auto& r : results) {
    if (r.name == "parallel") parallel_cpu_per_wall = r.round_cpu_per_wall;
  }
  std::vector<double> cpu_per_wall_sorted = parallel_cpu_per_wall;
  const double cpu_per_wall = estima::bench::median(cpu_per_wall_sorted);
  if (!parallel_cpu_per_wall.empty()) {
    std::printf("  parallel CPU/wall (delivered cores, median of %d "
                "rounds): %.2f (rounds %.2f..%.2f)\n",
                kRounds, cpu_per_wall, cpu_per_wall_sorted.front(),
                cpu_per_wall_sorted.back());
  }

  // Determinism cross-check: single-threaded vs pooled prediction must
  // agree bit-for-bit.
  const auto serial = estima::core::predict(ms, cfg);
  const auto pooled = estima::core::predict(ms, cfg, &pool);
  const bool identical = bit_identical(serial, pooled);
  std::printf("  1-thread vs %d-thread output bit-identical: %s\n", threads,
              identical ? "yes" : "NO");

  estima::obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "fit_throughput");
  w.kv("host_cores", estima::bench::host_cores());
  w.kv("measured_points", points);
  w.kv("target_cores", target);
  w.kv("pool_threads", threads);
  w.kv("checkpoint_settings_max", ckmax);
  w.begin_object("modes");
  for (const auto& r : results) {
    w.begin_object(r.name);
    w.kv("predictions_per_sec", r.predictions_per_sec, 3);
    w.kv("iterations", r.iterations);
    w.kv("seconds", r.seconds, 3);
    w.kv("fits_executed", static_cast<std::uint64_t>(r.fits_executed));
    w.kv("duplicate_fits_eliminated",
         static_cast<std::uint64_t>(r.duplicate_fits_eliminated));
    w.kv("candidates_considered",
         static_cast<std::uint64_t>(r.candidates_considered));
    w.kv("fits_per_sec",
         static_cast<double>(r.fits_executed) * r.predictions_per_sec, 1);
    w.kv("kernel_evals_per_sec",
         static_cast<double>(r.levmar_point_evals) * r.predictions_per_sec, 1);
    estima::bench::write_latency_json(w, "latency", r.latency);
    w.end_object();
  }
  w.end_object();
  w.kv("end_to_end_speedup_vs_baseline", speedup, 3);
  w.kv("speedup_rounds", kRounds);
  if (!parallel_cpu_per_wall.empty()) {
    w.kv("parallel_cpu_per_wall", cpu_per_wall, 3);
    w.begin_array("parallel_cpu_per_wall_rounds");
    for (const double v : parallel_cpu_per_wall) w.value(v, 3);
    w.end_array();
  }
  w.kv("multithreaded_bit_identical", identical);
  w.end_object();
  estima::bench::write_json_file(out_path, w);

  if (!identical) return 2;
  return baseline_unshared ? 0 : 3;
}
