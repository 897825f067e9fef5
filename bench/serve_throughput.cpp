// Serving-layer throughput benchmark: campaigns/sec cold vs warm-cache.
//
// The production question the serving subsystem answers: how many
// (workload, machine) campaigns per second can the repo serve when the
// same campaigns come back again and again (dashboards, capacity
// planners, CI fleets re-asking about the same builds)? Three rates are
// measured:
//   serial     — one core::predict() per campaign, no service (the cold
//                single-campaign reference every speedup is quoted
//                against);
//   cold batch — PredictionService::predict_many() on an empty cache
//                (batch dedup + pool fan-out, every unique computed);
//   warm batch — predict_many() again on the now-populated cache.
// The second pass must be served 100% from the cache with results
// bit-identical to the serial reference; the bench exits non-zero when
// either invariant (or the >= 10x warm speedup bar) fails.
//
// Streaming mode (on by default, --streaming=0 disables): the
// append-point workflow. One campaign is measured one core count at a
// time past its initial points; after each append the series is
// re-predicted twice — cold (fresh predict(), the old full recompute)
// and incrementally (a persistent core::FitMemo carried across steps, as
// the campaign store does). The incremental path must be bit-identical
// to cold at every step and >= 3x faster over the whole append sequence
// (CI-gated); the bench exits non-zero when either fails.
//
// Restart section (always on): the warm service spills its cache with
// snapshot_to() to a file beside --out, and a fresh service — the
// restarted process — warms only from that file (removed afterwards) and
// runs the restored-warm window against the same serial reference. It
// must restore every entry, recompute nothing and miss nothing, answer
// bit-identically to serial and serve >= 10x cold serial; the bench exits
// non-zero when any of those fails.
//
// Render cost (reported, not gated): render_us_per_record is what
// core::render_prediction takes per record over the warm window's
// answers, the median over 5 rounds.
//
// Reports JSON to BENCH_serve_throughput.json (and text to stdout).
//
// Flags:
//   --campaigns=C   distinct campaigns                (default 8)
//   --repeat=R      copies of each campaign per batch (default 4)
//   --threads=N     pool size                         (default: hardware)
//   --points=M      measured core counts 1..M         (default 12)
//   --target=T      extrapolation horizon             (default 48)
//   --warm-seconds=S  minimum warm measurement window (default 0.5)
//   --streaming=0|1 run the streaming section         (default 1)
//   --appends=A     points appended one at a time     (default 6)
//   --out=PATH      JSON output path (default BENCH_serve_throughput.json)
// An unknown, repeated or malformed flag is an error (exit 1).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/fit_memo.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "examples/cli_flags.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using estima::bench::bit_identical;
using estima::bench::seconds_since;

struct WarmWindow {
  std::size_t campaigns_served = 0;
  double seconds = 0.0;
  std::vector<estima::core::Prediction> out;  ///< the last batch's answers
  estima::bench::LatencyRecorder batch_latency;

  double campaigns_per_sec() const { return campaigns_served / seconds; }
};

/// Serves whole batches until the window is at least `min_seconds` long
/// and has served two of them.
WarmWindow run_warm_window(
    estima::service::PredictionService& service,
    const std::vector<estima::core::MeasurementSet>& batch,
    double min_seconds) {
  WarmWindow w;
  const auto start = Clock::now();
  for (int batches = 1;; ++batches) {
    const auto batch_start = Clock::now();
    w.out = service.predict_many(batch);
    w.batch_latency.record(batch_start, Clock::now());
    w.campaigns_served += batch.size();
    w.seconds = seconds_since(start);
    if (w.seconds >= min_seconds && batches >= 2) return w;
  }
}

/// Microseconds core::render_prediction takes per record over `answers`:
/// the median over 5 rounds of at least 20 ms each.
double render_us_per_record(
    const std::vector<estima::core::Prediction>& answers) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    std::size_t rendered = 0;
    const auto start = Clock::now();
    do {
      for (const auto& p : answers) {
        if (estima::core::render_prediction(p).empty()) {
          throw std::logic_error("render_prediction returned no bytes");
        }
      }
      rendered += answers.size();
    } while (seconds_since(start) < 0.02);
    rounds.push_back(seconds_since(start) * 1e6 /
                     static_cast<double>(rendered));
  }
  return estima::bench::median(rounds);
}

}  // namespace

int run_bench(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_throughput: %s\n", e.what());
    return 1;
  }
}

int run_bench(int argc, char** argv) {
  estima::examples::Flags flags(argc, argv);
  const int campaigns = flags.integer("campaigns", 8);
  const int repeat = flags.integer("repeat", 4);
  const int points = flags.integer("points", 12);
  const int target = flags.integer("target", 48);
  const double warm_seconds = flags.number("warm-seconds", 0.5);
  const bool streaming = flags.integer("streaming", 1) != 0;
  const int appends = flags.integer("appends", 6);
  const int threads = flags.integer(
      "threads",
      static_cast<int>(estima::parallel::ThreadPool::hardware_threads()));
  const std::string out_path =
      flags.str("out", "BENCH_serve_throughput.json");
  if (const auto err = flags.error()) throw std::invalid_argument(*err);

  // The request stream: C distinct campaigns, each appearing R times per
  // batch, interleaved the way independent clients would submit them.
  std::vector<estima::core::MeasurementSet> uniques;
  for (int i = 0; i < campaigns; ++i) {
    uniques.push_back(estima::bench::make_campaign(i, points, "serve"));
  }
  std::vector<estima::core::MeasurementSet> batch;
  for (int r = 0; r < repeat; ++r) {
    for (const auto& u : uniques) batch.push_back(u);
  }

  estima::core::PredictionConfig cfg;
  cfg.target_cores = estima::core::cores_up_to(target);

  std::printf("serve_throughput: %d campaigns x%d per batch, horizon %d, "
              "%d pool threads\n",
              campaigns, repeat, target, threads);

  // Serial reference: cold single-campaign throughput and the
  // bit-identity baseline.
  std::vector<estima::core::Prediction> serial;
  const auto serial_start = Clock::now();
  for (const auto& u : uniques) serial.push_back(estima::core::predict(u, cfg));
  const double serial_elapsed = seconds_since(serial_start);
  const double serial_cps = campaigns / serial_elapsed;
  const auto matches_serial =
      [&](const std::vector<estima::core::Prediction>& out) {
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (!bit_identical(out[i], serial[i % serial.size()])) return false;
        }
        return true;
      };

  estima::parallel::ThreadPool pool(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  estima::service::ServiceConfig scfg;
  scfg.prediction = cfg;
  // One exact LRU holding every unique campaign: the 100% hit-rate gates
  // can only fail for real bugs.
  scfg.cache_capacity = static_cast<std::size_t>(campaigns);
  estima::service::PredictionService service(scfg, &pool);

  // Cold batch: empty cache, every unique computed once, repeats folded.
  const auto cold_start = Clock::now();
  const auto cold_out = service.predict_many(batch);
  const double cold_elapsed = seconds_since(cold_start);
  const double cold_cps = static_cast<double>(batch.size()) / cold_elapsed;
  const auto after_cold = service.stats();

  // Warm passes: loop whole batches until the window is long enough to
  // time the cache path honestly. The first warm pass supplies the
  // second-pass hit-rate figure.
  const WarmWindow warm = run_warm_window(service, batch, warm_seconds);
  const double warm_cps = warm.campaigns_per_sec();
  const auto after_warm = service.stats();

  // Invariants. Second pass = the first warm batch: its unique lookups
  // must all be hits and must add no computation.
  const std::uint64_t warm_hits = after_warm.cache.hits - after_cold.cache.hits;
  const std::uint64_t warm_misses =
      after_warm.cache.misses - after_cold.cache.misses;
  const double second_pass_hit_rate =
      warm_hits > 0 || warm_misses > 0
          ? static_cast<double>(warm_hits) /
                static_cast<double>(warm_hits + warm_misses)
          : 0.0;
  const bool no_new_compute =
      after_warm.predictions_computed == after_cold.predictions_computed;
  const bool identical = matches_serial(cold_out) && matches_serial(warm.out);
  const double warm_speedup = warm_cps / serial_cps;
  const bool speedup_ok = warm_speedup >= 10.0;
  const bool hit_rate_ok = second_pass_hit_rate == 1.0 && no_new_compute;
  // What a warm hit spends rendering its answer as a record.
  const double render_us = render_us_per_record(warm.out);

  // Restart: spill the warm cache beside --out, then warm a fresh service
  // from that file alone. A file it cannot use at all counts as an
  // incomplete restore, not as a crash.
  const std::string snapshot_path = out_path + ".snapshot";
  (void)service.snapshot_to(snapshot_path);
  estima::service::PredictionService restarted(scfg, &pool);
  estima::service::SnapshotLoadReport restore;
  bool restore_read = false;
  const auto restore_start = Clock::now();
  try {
    restore = restarted.restore_from(snapshot_path);
    restore_read = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_throughput: restore failed: %s\n", e.what());
  }
  const double restore_elapsed = seconds_since(restore_start);
  std::remove(snapshot_path.c_str());
  const bool restore_complete =
      restore_read &&
      restore.entries_loaded() == static_cast<std::size_t>(campaigns) &&
      restore.skipped.empty() && !restore.truncated;
  const auto after_restore = restarted.stats();
  const WarmWindow restored = run_warm_window(restarted, batch, warm_seconds);
  const auto after_restored = restarted.stats();
  const bool restart_all_hits =
      after_restored.cache.misses == after_restore.cache.misses &&
      after_restored.predictions_computed == 0;
  const bool restart_identical = matches_serial(restored.out);
  const double restart_speedup = restored.campaigns_per_sec() / serial_cps;
  const bool restart_speedup_ok = restart_speedup >= 10.0;

  // Per-campaign latency percentiles on the warm path (pure cache hits).
  estima::bench::LatencyRecorder warm_lat;
  {
    const auto start = Clock::now();
    while (seconds_since(start) < std::max(0.1, warm_seconds / 4.0)) {
      for (const auto& u : uniques) {
        const auto op_start = Clock::now();
        (void)service.predict_one(u);
        warm_lat.record(op_start, Clock::now());
      }
    }
  }

  // Observability overhead at request granularity: one TraceContext per
  // warm batch — exactly what one traced HTTP request pays (context
  // creation, cache.lookup spans, histogram records, finish) — against
  // the identical untraced call.
  estima::obs::Registry registry;
  estima::obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = -1;  // measuring span cost, not collecting slow
  estima::obs::Tracer tracer(registry, tcfg);
  const estima::bench::Overhead overhead = estima::bench::interleaved_overhead(
      [&](std::size_t) { (void)service.predict_many(batch); },
      [&](std::size_t) {
        estima::obs::TraceContext tctx(&tracer, tracer.generate_id(),
                                       Clock::now());
        (void)service.predict_many(batch, nullptr, &tctx);
        tracer.finish(tctx, Clock::now());
      },
      std::max(0.3, warm_seconds));
  const double untraced_cps =
      static_cast<double>(batch.size()) * 1e9 / overhead.untraced_ns;
  const double traced_cps =
      static_cast<double>(batch.size()) * 1e9 / overhead.traced_ns;

  // Streaming: the append-point workflow the campaign store serves. A
  // campaign measured out to points+appends core counts arrives one
  // point at a time; each arrival is re-predicted cold (fresh predict())
  // and incrementally (one FitMemo persisting across the whole stream,
  // exactly how CampaignStore carries it). Both run serially — the
  // comparison is fit work avoided, not pool scheduling. The memo is
  // pre-seeded by predicting the initial series once (untimed): that is
  // the PUT that created the campaign.
  double stream_cold_s = 0.0;
  double stream_incr_s = 0.0;
  std::uint64_t stream_memo_hits = 0;
  double stream_bytes_per_entry = 0.0;
  bool stream_identical = true;
  double stream_speedup = 0.0;
  bool stream_ok = true;
  if (streaming) {
    const auto full =
        estima::bench::make_campaign(0, points + appends, "serve");
    estima::core::FitMemo memo;
    estima::core::ExecContext memoized;
    memoized.memo = &memo;
    (void)estima::core::predict(full.truncated(points), cfg, memoized);
    for (int a = 1; a <= appends; ++a) {
      const auto ms = full.truncated(static_cast<std::size_t>(points + a));
      const auto c0 = Clock::now();
      const auto cold = estima::core::predict(ms, cfg);
      stream_cold_s += seconds_since(c0);
      const auto i0 = Clock::now();
      const auto incr = estima::core::predict(ms, cfg, memoized);
      stream_incr_s += seconds_since(i0);
      if (!bit_identical(cold, incr)) stream_identical = false;
    }
    const estima::core::FitMemoStats memo_stats = memo.stats();
    stream_memo_hits = memo_stats.hits;
    stream_bytes_per_entry =
        static_cast<double>(memo_stats.bytes) /
        static_cast<double>(std::max<std::uint64_t>(memo_stats.entries, 1));
    stream_speedup = stream_cold_s / stream_incr_s;
    stream_ok = stream_identical && stream_speedup >= 3.0;
  }

  std::printf("  serial predict   %10.2f campaigns/s  (%d campaigns in %.3fs)\n",
              serial_cps, campaigns, serial_elapsed);
  std::printf("  cold  batch      %10.2f campaigns/s  (%zu campaigns in %.3fs)\n",
              cold_cps, batch.size(), cold_elapsed);
  std::printf("  warm  batch      %10.2f campaigns/s  (%zu campaigns in %.3fs)\n",
              warm_cps, warm.campaigns_served, warm.seconds);
  std::printf("  warm vs cold-serial speedup: %.1fx (bar: >= 10x)\n",
              warm_speedup);
  std::printf("  second-pass hit rate: %.0f%%, no new compute: %s\n",
              100.0 * second_pass_hit_rate, no_new_compute ? "yes" : "NO");
  std::printf("  bit-identical to serial predict(): %s\n",
              identical ? "yes" : "NO");
  std::printf("  render: %.2f us per warm record\n", render_us);
  std::printf("  restart: restored %zu entries in %.4fs (%zu skipped), "
              "restore complete: %s\n",
              restore.entries_loaded(), restore_elapsed,
              restore.skipped.size(), restore_complete ? "yes" : "NO");
  std::printf("  restored-warm    %10.2f campaigns/s  (%zu campaigns in "
              "%.3fs), %.1fx cold serial (bar: >= 10x)\n",
              restored.campaigns_per_sec(), restored.campaigns_served,
              restored.seconds, restart_speedup);
  std::printf("  restored-warm all hits (0 recomputes, 0 misses): %s, "
              "bit-identical to serial: %s\n",
              restart_all_hits ? "yes" : "NO",
              restart_identical ? "yes" : "NO");
  std::printf("  warm traced vs untraced: untraced %10.2f/s  traced "
              "%10.2f/s  obs overhead %.2f%%\n",
              untraced_cps, traced_cps, overhead.overhead_pct);
  {
    const auto ls = warm_lat.stats();
    std::printf("  warm latency: p50 %.4fms p90 %.4fms p99 %.4fms "
                "p999 %.4fms\n",
                ls.p50_ms, ls.p90_ms, ls.p99_ms, ls.p999_ms);
  }
  if (streaming) {
    std::printf("  streaming: %d appends, cold %.3fs vs incremental %.3fs "
                "-> %.1fx (bar: >= 3x), memo hits %llu, bit-identical: %s\n",
                appends, stream_cold_s, stream_incr_s, stream_speedup,
                static_cast<unsigned long long>(stream_memo_hits),
                stream_identical ? "yes" : "NO");
    std::printf("  streaming memo: %.1f bytes per entry\n",
                stream_bytes_per_entry);
  }
  std::printf("  service: computed=%llu folded=%llu joins=%llu "
              "hits=%llu misses=%llu evictions=%llu\n",
              static_cast<unsigned long long>(after_warm.predictions_computed),
              static_cast<unsigned long long>(
                  after_warm.batch_duplicates_folded),
              static_cast<unsigned long long>(after_warm.inflight_joins),
              static_cast<unsigned long long>(after_warm.cache.hits),
              static_cast<unsigned long long>(after_warm.cache.misses),
              static_cast<unsigned long long>(after_warm.cache.evictions));

  estima::obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "serve_throughput");
  w.kv("host_cores", estima::bench::host_cores());
  w.kv("campaigns", campaigns);
  w.kv("repeat_per_batch", repeat);
  w.kv("measured_points", points);
  w.kv("target_cores", target);
  w.kv("pool_threads", threads);
  w.kv("serial_campaigns_per_sec", serial_cps, 3);
  w.kv("cold_batch_campaigns_per_sec", cold_cps, 3);
  w.kv("warm_batch_campaigns_per_sec", warm_cps, 3);
  w.kv("warm_speedup_vs_cold_serial", warm_speedup, 3);
  w.kv("second_pass_hit_rate", second_pass_hit_rate, 4);
  w.kv("predictions_computed", after_warm.predictions_computed);
  w.kv("batch_duplicates_folded", after_warm.batch_duplicates_folded);
  w.kv("cache_hits", after_warm.cache.hits);
  w.kv("cache_misses", after_warm.cache.misses);
  w.kv("cache_evictions", after_warm.cache.evictions);
  w.kv("untraced_warm_campaigns_per_sec", untraced_cps, 3);
  w.kv("traced_warm_campaigns_per_sec", traced_cps, 3);
  estima::bench::write_overhead_json(w, overhead);
  estima::bench::write_latency_json(w, "warm_latency", warm_lat);
  estima::bench::write_latency_json(w, "warm_batch_latency",
                                    warm.batch_latency);
  w.kv("render_us_per_record", render_us, 3);
  w.kv("bit_identical_to_serial", identical);
  w.kv("speedup_bar_met", speedup_ok);
  w.kv("restart_restore_seconds", restore_elapsed, 6);
  w.kv("restart_entries_restored",
       static_cast<std::uint64_t>(restore.entries_loaded()));
  w.kv("restart_entries_skipped",
       static_cast<std::uint64_t>(restore.skipped.size()));
  w.kv("restart_restored_warm_campaigns_per_sec",
       restored.campaigns_per_sec(), 3);
  w.kv("restart_restored_warm_speedup_vs_cold", restart_speedup, 3);
  estima::bench::write_latency_json(w, "restart_warm_batch_latency",
                                    restored.batch_latency);
  w.kv("restart_restore_complete", restore_complete);
  w.kv("restart_all_hits_after_restore", restart_all_hits);
  w.kv("restart_bit_identical_to_serial", restart_identical);
  w.kv("restart_speedup_bar_met", restart_speedup_ok);
  if (streaming) {
    w.kv("streaming_appends", appends);
    w.kv("streaming_cold_s", stream_cold_s, 4);
    w.kv("streaming_incremental_s", stream_incr_s, 4);
    w.kv("streaming_speedup", stream_speedup, 3);
    w.kv("streaming_memo_hits", stream_memo_hits);
    w.kv("streaming_memo_bytes_per_entry", stream_bytes_per_entry, 2);
    w.kv("streaming_bit_identical", stream_identical);
    w.kv("streaming_bar_met", stream_ok);
  }
  w.end_object();
  estima::bench::write_json_file(out_path, w);

  const bool restart_ok = restore_complete && restart_all_hits &&
                          restart_identical && restart_speedup_ok;
  return (identical && hit_rate_ok && speedup_ok && stream_ok && restart_ok)
             ? 0
             : 2;
}
