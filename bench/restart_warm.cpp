// Warm-restart benchmark: campaigns/sec served by a freshly started
// service, cold vs restored from a ResultCache snapshot.
//
// The production scenario: the serving process dies (deploy, crash,
// reschedule) and comes back. Without persistence every repeat query pays
// a full predict(); with PR 3's snapshot the restarted process reloads its
// cache and answers instantly. Three rates are measured:
//   cold serial — one core::predict() per campaign on a fresh process
//                 (what every restart used to cost);
//   restore     — one-time snapshot load (reported, not gated);
//   restored-warm — predict_many() on a *new* service warmed purely from
//                 the snapshot written by the first service.
// Gates (exit 2 on violation):
//   * the restored service recomputes nothing and misses nothing
//     (100% hit rate on previously-seen campaigns);
//   * its answers are bit-identical to the pre-restart serial reference;
//   * restored-warm throughput >= 10x cold serial.
//
// Reports JSON to BENCH_restart_warm.json (and text to stdout).
//
// Flags:
//   --campaigns=C   distinct campaigns                (default 8)
//   --repeat=R      copies of each campaign per batch (default 4)
//   --threads=N     pool size                         (default: hardware)
//   --points=M      measured core counts 1..M         (default 12)
//   --target=T      extrapolation horizon             (default 48)
//   --warm-seconds=S  minimum warm measurement window (default 0.5)
//   --snapshot=PATH snapshot file (default BENCH_restart_warm.snapshot)
//   --out=PATH      JSON output path (default BENCH_restart_warm.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"
#include "simmachine/synthetic.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using estima::bench::bit_identical;
using estima::bench::parse_flag_d;
using estima::bench::parse_flag_s;

estima::core::MeasurementSet make_campaign(int seed, int points) {
  estima::sim::SyntheticSpec spec;
  spec.mem_rate = 0.25 + 0.02 * (seed % 7);
  spec.serial_frac = 0.005 + 0.0015 * (seed % 5);
  spec.stm_rate = seed % 2 ? 1e-4 : 0.0;
  spec.noise = 0.02;
  return estima::sim::make_synthetic(
      spec, estima::sim::counts_up_to(points),
      ("restart-campaign-" + std::to_string(seed)).c_str());
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int run_bench(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "restart_warm: %s\n", e.what());
    return 1;
  }
}

int run_bench(int argc, char** argv) {
  const int campaigns =
      static_cast<int>(parse_flag_d(argc, argv, "campaigns", 8));
  const int repeat = static_cast<int>(parse_flag_d(argc, argv, "repeat", 4));
  const int points = static_cast<int>(parse_flag_d(argc, argv, "points", 12));
  const int target = static_cast<int>(parse_flag_d(argc, argv, "target", 48));
  const double warm_seconds = parse_flag_d(argc, argv, "warm-seconds", 0.5);
  const int threads = static_cast<int>(parse_flag_d(
      argc, argv, "threads",
      static_cast<double>(estima::parallel::ThreadPool::hardware_threads())));
  const std::string snapshot_path =
      parse_flag_s(argc, argv, "snapshot", "BENCH_restart_warm.snapshot");
  const std::string out_path =
      parse_flag_s(argc, argv, "out", "BENCH_restart_warm.json");

  std::vector<estima::core::MeasurementSet> uniques;
  for (int i = 0; i < campaigns; ++i) {
    uniques.push_back(make_campaign(i, points));
  }
  std::vector<estima::core::MeasurementSet> batch;
  for (int r = 0; r < repeat; ++r) {
    for (const auto& u : uniques) batch.push_back(u);
  }

  estima::core::PredictionConfig cfg;
  cfg.target_cores = estima::core::cores_up_to(target);

  std::printf("restart_warm: %d campaigns x%d per batch, horizon %d, "
              "%d pool threads\n",
              campaigns, repeat, target, threads);

  // Cold serial reference: what a restarted process without persistence
  // pays per campaign, and the bit-identity baseline.
  std::vector<estima::core::Prediction> serial;
  const auto serial_start = Clock::now();
  for (const auto& u : uniques) {
    serial.push_back(estima::core::predict(u, cfg));
  }
  const double serial_elapsed = seconds_since(serial_start);
  const double cold_cps = campaigns / serial_elapsed;

  estima::parallel::ThreadPool pool(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  estima::service::ServiceConfig scfg;
  scfg.prediction = cfg;
  // Headroom against shard-capacity skew, as in serve_throughput: the
  // 100%-hit-rate gate must only ever fail for real bugs.
  scfg.cache_capacity = static_cast<std::size_t>(64 * campaigns);

  // "Yesterday's" process: populate the cache, spill it to disk.
  estima::service::PredictionService before_restart(scfg, &pool);
  before_restart.predict_many(batch);
  const auto written = before_restart.snapshot_to(snapshot_path);
  std::printf("  snapshot: %zu entries -> %s\n", written.entries_written,
              snapshot_path.c_str());

  // "Today's" process: a fresh service warmed only from the snapshot.
  estima::service::PredictionService service(scfg, &pool);
  const auto restore_start = Clock::now();
  const auto restore_report = service.restore_from(snapshot_path);
  const double restore_elapsed = seconds_since(restore_start);
  const auto after_restore = service.stats();

  // Warm passes against the restored cache; per-batch latency feeds the
  // reported percentiles.
  estima::bench::LatencyRecorder warm_lat;
  int warm_batches = 0;
  std::size_t warm_campaigns_served = 0;
  std::vector<estima::core::Prediction> warm_out;
  const auto warm_start = Clock::now();
  double warm_elapsed = 0.0;
  for (;;) {
    const auto batch_t0 = Clock::now();
    warm_out = service.predict_many(batch);
    warm_lat.record(batch_t0, Clock::now());
    ++warm_batches;
    warm_campaigns_served += batch.size();
    warm_elapsed = seconds_since(warm_start);
    if (warm_elapsed >= warm_seconds && warm_batches >= 2) break;
  }
  const double warm_cps = warm_campaigns_served / warm_elapsed;
  const auto after_warm = service.stats();

  // Gates.
  const bool restore_complete =
      restore_report.entries_loaded() ==
          static_cast<std::size_t>(campaigns) &&
      restore_report.skipped.empty() && !restore_report.truncated;
  const bool all_hits =
      after_warm.cache.misses == after_restore.cache.misses &&
      after_warm.predictions_computed == 0;
  bool identical = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& want = serial[i % static_cast<std::size_t>(campaigns)];
    if (!bit_identical(warm_out[i], want)) {
      identical = false;
      break;
    }
  }
  const double warm_speedup = warm_cps / cold_cps;
  const bool speedup_ok = warm_speedup >= 10.0;

  std::printf("  cold serial      %10.2f campaigns/s  (%d campaigns in %.3fs)\n",
              cold_cps, campaigns, serial_elapsed);
  std::printf("  restore          %zu entries in %.4fs (%zu skipped)\n",
              restore_report.entries_loaded(), restore_elapsed,
              restore_report.skipped.size());
  std::printf("  restored-warm    %10.2f campaigns/s  (%zu campaigns in %.3fs)\n",
              warm_cps, warm_campaigns_served, warm_elapsed);
  std::printf("  restored-warm vs cold speedup: %.1fx (bar: >= 10x)\n",
              warm_speedup);
  std::printf("  restore complete: %s, all hits (0 recomputes, 0 misses): %s\n",
              restore_complete ? "yes" : "NO", all_hits ? "yes" : "NO");
  std::printf("  bit-identical to pre-restart serial predict(): %s\n",
              identical ? "yes" : "NO");
  std::printf("  service: restored=%llu skipped=%llu hits=%llu misses=%llu\n",
              static_cast<unsigned long long>(
                  after_warm.snapshot_entries_restored),
              static_cast<unsigned long long>(
                  after_warm.snapshot_entries_skipped),
              static_cast<unsigned long long>(after_warm.cache.hits),
              static_cast<unsigned long long>(after_warm.cache.misses));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  estima::obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "restart_warm");
  w.kv("host_cores", estima::bench::host_cores());
  w.kv("campaigns", campaigns);
  w.kv("repeat_per_batch", repeat);
  w.kv("measured_points", points);
  w.kv("target_cores", target);
  w.kv("pool_threads", threads);
  w.kv("cold_serial_campaigns_per_sec", cold_cps, 3);
  w.kv("restore_seconds", restore_elapsed, 6);
  w.kv("entries_restored",
       static_cast<std::uint64_t>(restore_report.entries_loaded()));
  w.kv("entries_skipped",
       static_cast<std::uint64_t>(restore_report.skipped.size()));
  w.kv("restored_warm_campaigns_per_sec", warm_cps, 3);
  w.kv("restored_warm_speedup_vs_cold", warm_speedup, 3);
  estima::bench::write_latency_json(w, "warm_batch_latency", warm_lat);
  w.kv("restore_complete", restore_complete);
  w.kv("all_hits_after_restore", all_hits);
  w.kv("bit_identical_to_serial", identical);
  w.kv("speedup_bar_met", speedup_ok);
  w.end_object();
  std::fputs(w.str().c_str(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path.c_str());

  std::remove(snapshot_path.c_str());
  return (restore_complete && all_hits && identical && speedup_ok) ? 0 : 2;
}
