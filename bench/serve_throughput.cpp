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
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/fit_memo.hpp"
#include "core/predictor.hpp"
#include "obs/trace.hpp"
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
      ("serve-campaign-" + std::to_string(seed)).c_str());
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
    std::fprintf(stderr, "serve_throughput: %s\n", e.what());
    return 1;
  }
}

int run_bench(int argc, char** argv) {
  const int campaigns =
      static_cast<int>(parse_flag_d(argc, argv, "campaigns", 8));
  const int repeat = static_cast<int>(parse_flag_d(argc, argv, "repeat", 4));
  const int points = static_cast<int>(parse_flag_d(argc, argv, "points", 12));
  const int target = static_cast<int>(parse_flag_d(argc, argv, "target", 48));
  const double warm_seconds =
      parse_flag_d(argc, argv, "warm-seconds", 0.5);
  const bool streaming = parse_flag_d(argc, argv, "streaming", 1) != 0;
  const int appends = static_cast<int>(parse_flag_d(argc, argv, "appends", 6));
  const int threads = static_cast<int>(parse_flag_d(
      argc, argv, "threads",
      static_cast<double>(estima::parallel::ThreadPool::hardware_threads())));
  const std::string out_path =
      parse_flag_s(argc, argv, "out", "BENCH_serve_throughput.json");

  // The request stream: C distinct campaigns, each appearing R times per
  // batch, interleaved the way independent clients would submit them.
  std::vector<estima::core::MeasurementSet> uniques;
  for (int i = 0; i < campaigns; ++i) uniques.push_back(make_campaign(i, points));
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

  estima::parallel::ThreadPool pool(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  estima::service::ServiceConfig scfg;
  scfg.prediction = cfg;
  // Capacity is split across the cache's 16 shards and keys can skew, so
  // leave enough headroom that even every campaign landing in one shard
  // (per-shard capacity = total/16) cannot evict a live entry — the
  // warm-pass 100% hit-rate gate must only ever fail for real bugs.
  scfg.cache_capacity = static_cast<std::size_t>(64 * campaigns);
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
  int warm_batches = 0;
  std::size_t warm_campaigns_served = 0;
  std::vector<estima::core::Prediction> warm_out;
  const auto warm_start = Clock::now();
  double warm_elapsed = 0.0;
  for (;;) {
    warm_out = service.predict_many(batch);
    ++warm_batches;
    warm_campaigns_served += batch.size();
    warm_elapsed = seconds_since(warm_start);
    if (warm_elapsed >= warm_seconds && warm_batches >= 2) break;
  }
  const double warm_cps = warm_campaigns_served / warm_elapsed;
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

  bool identical = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& want = serial[i % static_cast<std::size_t>(campaigns)];
    if (!bit_identical(cold_out[i], want) ||
        !bit_identical(warm_out[i], want)) {
      identical = false;
      break;
    }
  }

  const double warm_speedup = warm_cps / serial_cps;
  const bool speedup_ok = warm_speedup >= 10.0;
  const bool hit_rate_ok = second_pass_hit_rate == 1.0 && no_new_compute;

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
  // the identical untraced call. Traced and untraced batches strictly
  // alternate inside ONE window, so scheduler stalls and frequency
  // wander land on both sides alike, and each side's per-batch times are
  // tail-trimmed before comparing means: a single preempted batch must
  // not masquerade as tracing cost.
  estima::obs::Registry registry;
  estima::obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = -1;  // measuring span cost, not collecting slow
  estima::obs::Tracer tracer(registry, tcfg);
  std::vector<double> untraced_ns, traced_ns;
  {
    const double window_s = std::max(0.3, warm_seconds);
    const auto start = Clock::now();
    while (seconds_since(start) < window_s) {
      const auto u0 = Clock::now();
      (void)service.predict_many(batch);
      const auto u1 = Clock::now();
      untraced_ns.push_back(
          std::chrono::duration<double, std::nano>(u1 - u0).count());
      const auto t0 = Clock::now();
      estima::obs::TraceContext tctx(&tracer, tracer.generate_id(), t0);
      (void)service.predict_many(batch, nullptr, &tctx);
      const auto t1 = Clock::now();
      tracer.finish(tctx, t1);
      traced_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
  const auto trimmed_mean = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const std::size_t keep = std::max<std::size_t>(1, v.size() * 9 / 10);
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) sum += v[i];
    return sum / static_cast<double>(keep);
  };
  const double untraced_batch_ns = trimmed_mean(untraced_ns);
  const double traced_batch_ns = trimmed_mean(traced_ns);
  const double untraced_cps =
      static_cast<double>(batch.size()) * 1e9 / untraced_batch_ns;
  const double traced_cps =
      static_cast<double>(batch.size()) * 1e9 / traced_batch_ns;
  const double obs_overhead_pct =
      100.0 * (traced_batch_ns - untraced_batch_ns) / untraced_batch_ns;

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
  bool stream_identical = true;
  double stream_speedup = 0.0;
  bool stream_ok = true;
  if (streaming) {
    const auto full = make_campaign(0, points + appends);
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
    stream_memo_hits = memo.stats().hits;
    stream_speedup = stream_cold_s / stream_incr_s;
    stream_ok = stream_identical && stream_speedup >= 3.0;
  }

  std::printf("  serial predict   %10.2f campaigns/s  (%d campaigns in %.3fs)\n",
              serial_cps, campaigns, serial_elapsed);
  std::printf("  cold  batch      %10.2f campaigns/s  (%zu campaigns in %.3fs)\n",
              cold_cps, batch.size(), cold_elapsed);
  std::printf("  warm  batch      %10.2f campaigns/s  (%zu campaigns in %.3fs)\n",
              warm_cps, warm_campaigns_served, warm_elapsed);
  std::printf("  warm vs cold-serial speedup: %.1fx (bar: >= 10x)\n",
              warm_speedup);
  std::printf("  second-pass hit rate: %.0f%%, no new compute: %s\n",
              100.0 * second_pass_hit_rate, no_new_compute ? "yes" : "NO");
  std::printf("  bit-identical to serial predict(): %s\n",
              identical ? "yes" : "NO");
  std::printf("  warm traced vs untraced: untraced %10.2f/s  traced "
              "%10.2f/s  obs overhead %.2f%%\n",
              untraced_cps, traced_cps, obs_overhead_pct);
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

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
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
  w.kv("obs_overhead_pct", obs_overhead_pct, 2);
  estima::bench::write_latency_json(w, "warm_latency", warm_lat);
  w.kv("bit_identical_to_serial", identical);
  w.kv("speedup_bar_met", speedup_ok);
  if (streaming) {
    w.kv("streaming_appends", appends);
    w.kv("streaming_cold_s", stream_cold_s, 4);
    w.kv("streaming_incremental_s", stream_incr_s, 4);
    w.kv("streaming_speedup", stream_speedup, 3);
    w.kv("streaming_memo_hits", stream_memo_hits);
    w.kv("streaming_bit_identical", stream_identical);
    w.kv("streaming_bar_met", stream_ok);
  }
  w.end_object();
  std::fputs(w.str().c_str(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path.c_str());

  return (identical && hit_rate_ok && speedup_ok && stream_ok) ? 0 : 2;
}
