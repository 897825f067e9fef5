// Network front-end throughput: loopback HTTP requests/sec, cold vs warm.
//
// The question this bench answers: what does the HTTP edge cost on top of
// the serving layer it fronts? Three rates over a real loopback socket:
//   cold  — POST /v1/predict per campaign on an empty cache (every
//           request computes; the single-campaign reference);
//   warm  — the same requests again, all answered from the campaign
//           cache (the dashboard/capacity-planner steady state), with
//           --idle-clients (default 512) established keep-alive
//           connections held open and silent the whole time — the wall
//           the thread-per-connection server hit, and the scenario the
//           epoll event loop exists for;
//   batch — one POST /v1/predict_batch carrying every campaign at once,
//           warm (framing + predict_many amortised over one request).
// Every warm response is parsed back with read_prediction and must be
// bit-identical to an in-process serial predict(); the warm hit rate must
// be 100%; warm requests/sec (idle horde attached) must be >= 10x cold;
// the horde must still be fully connected when the warm window ends. The
// bench exits non-zero when any bar fails.
//
// Reports JSON to BENCH_net_throughput.json (and text to stdout).
//
// Flags:
//   --campaigns=C      distinct campaigns              (default 8)
//   --points=M         measured core counts 1..M      (default 12)
//   --target=T         extrapolation horizon          (default 48)
//   --threads=N        prediction pool size           (default: hardware)
//   --http-threads=N   handler pool size              (default 4)
//   --io-threads=N     event-loop threads             (default 2)
//   --idle-clients=N   idle keep-alive connections    (default 512)
//   --warm-seconds=S   minimum warm window            (default 0.5)
//   --out=PATH         JSON output path (default BENCH_net_throughput.json)
//   --chaos=0|1        after the clean bars, re-run the warm window with
//                      ~1% socket faults injected on both sides of the
//                      wire (server read/write, client send/recv) and a
//                      retrying client; reports throughput retention vs
//                      the clean warm rate and the request error rate.
//                      Requires a build with ESTIMA_FAULT_INJECTION=ON;
//                      otherwise the JSON records chaos as disabled.
//   --chaos-seed=S     fault-schedule RNG seed        (default 1)
// An unknown, repeated or malformed flag is an error (exit 1).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/measurement.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "examples/cli_flags.hpp"
#include "fault/fault_injection.hpp"
#include "net/client.hpp"
#include "net/fd_limit.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"
#include "service/routes.hpp"
#include "tests/net_support.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using estima::bench::bit_identical;
using estima::bench::seconds_since;

std::string csv_of(const estima::core::MeasurementSet& ms) {
  std::ostringstream os;
  estima::core::write_csv(os, ms);
  return os.str();
}

/// Establishes n keep-alive connections: each completes one GET /v1/stats
/// round trip (so it is a real, served keep-alive client, not just a TCP
/// handshake) and then goes silent. Returns the connected fds; -1 entries
/// mean the slot could not be established.
std::vector<int> open_idle_clients(int port, int n) {
  using namespace estima::net;
  std::vector<int> fds(static_cast<std::size_t>(n), -1);
  for (auto& fd : fds) {
    fd = estima::testing::raw_connect(port);
  }
  // Pipeline the handshakes: write all requests, then read all responses.
  const std::string wire = serialize_request("GET", "/v1/stats", "", {});
  for (int fd : fds) {
    if (fd >= 0) (void)::send(fd, wire.data(), wire.size(), 0);
  }
  char buf[4096];
  for (auto& fd : fds) {
    if (fd < 0) continue;
    ResponseParser parser;
    while (parser.state() == ResponseParser::State::kNeedMore) {
      const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
      if (r <= 0) break;
      parser.feed(buf, static_cast<std::size_t>(r));
    }
    if (parser.state() != ResponseParser::State::kComplete) {
      ::close(fd);
      fd = -1;
    }
  }
  return fds;
}

}  // namespace

int run_bench(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_throughput: %s\n", e.what());
    return 1;
  }
}

int run_bench(int argc, char** argv) {
  estima::examples::Flags flags(argc, argv);
  const int campaigns = flags.integer("campaigns", 8);
  const int points = flags.integer("points", 12);
  const int target = flags.integer("target", 48);
  const int threads = flags.integer(
      "threads",
      static_cast<int>(estima::parallel::ThreadPool::hardware_threads()));
  const int http_threads = flags.integer("http-threads", 4);
  const int io_threads = flags.integer("io-threads", 2);
  const int idle_clients = flags.integer("idle-clients", 512);
  const double warm_seconds = flags.number("warm-seconds", 0.5);
  const std::string out_path = flags.str("out", "BENCH_net_throughput.json");
  bool chaos = flags.integer("chaos", 0) != 0;
  const auto chaos_seed =
      static_cast<std::uint64_t>(flags.integer("chaos-seed", 1));
  if (const auto err = flags.error()) throw std::invalid_argument(*err);
  if (chaos && !estima::fault::compiled_in()) {
    std::fprintf(stderr,
                 "net_throughput: --chaos needs ESTIMA_FAULT_INJECTION=ON; "
                 "reporting chaos as disabled\n");
    chaos = false;
  }

  std::vector<estima::core::MeasurementSet> uniques;
  std::vector<std::string> bodies;
  for (int i = 0; i < campaigns; ++i) {
    uniques.push_back(estima::bench::make_campaign(i, points, "net"));
    bodies.push_back(csv_of(uniques.back()));
  }

  estima::core::PredictionConfig cfg;
  cfg.target_cores = estima::core::cores_up_to(target);

  std::printf("net_throughput: %d campaigns over loopback HTTP, horizon %d, "
              "%d prediction threads, %d handler workers, %d io loops, "
              "%d idle keep-alive clients\n",
              campaigns, target, threads, http_threads, io_threads,
              idle_clients);

  // Serial in-process reference: the bit-identity baseline (the campaign
  // each response must reproduce exactly, through CSV -> predict ->
  // write_prediction -> HTTP -> read_prediction).
  std::vector<estima::core::Prediction> serial;
  for (const auto& u : uniques) serial.push_back(estima::core::predict(u, cfg));

  estima::parallel::ThreadPool pool(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  estima::service::ServiceConfig scfg;
  scfg.prediction = cfg;
  scfg.cache_capacity = static_cast<std::size_t>(campaigns);  // every unique
  estima::service::PredictionService service(scfg, &pool);
  estima::service::RouterConfig rcfg;
  rcfg.max_batch_campaigns = static_cast<std::size_t>(campaigns) + 16;
  estima::service::ServiceRouter router(service, rcfg);

  estima::net::ServerConfig ncfg;
  ncfg.worker_threads =
      static_cast<std::size_t>(http_threads > 0 ? http_threads : 1);
  ncfg.io_threads = static_cast<std::size_t>(io_threads > 0 ? io_threads : 1);
  // The daemon's wiring: cache hits answered on the event loop, the
  // rest on the handler pool, where the router sees each request's
  // deadline, shedding signal and trace, as it does under estima_serve.
  const std::unique_ptr<estima::net::HttpServer> server =
      estima::service::make_server(router, ncfg);
  server->start();
  estima::net::HttpClient client("127.0.0.1", server->port());
  // Every clean-path request must answer 200; anything else ends the
  // bench (exit 1).
  const auto post = [&client](const char* path, const std::string& body,
                              const char* type) {
    auto resp = client.post(path, body, type);
    if (resp.status != 200) {
      throw std::runtime_error(std::string(path) + " failed: " +
                               std::to_string(resp.status) + " " +
                               resp.body);
    }
    return resp;
  };
  const auto matches_serial = [&serial](const std::string& record,
                                        std::size_t i) {
    std::istringstream is(record);
    return bit_identical(estima::core::read_prediction(is), serial[i]);
  };

  // Cold: every request computes its campaign.
  const auto cold_start = Clock::now();
  for (const auto& body : bodies) (void)post("/v1/predict", body, "text/csv");
  const double cold_elapsed = seconds_since(cold_start);
  const double cold_rps = campaigns / cold_elapsed;
  const auto after_cold = service.stats();

  // The idle horde: established keep-alive clients that sit silent for
  // the whole warm window. Under the old thread-per-connection server
  // this many idle clients exhausted the worker budget; the event loop
  // must serve warm traffic at full speed past them.
  estima::net::raise_fd_limit(
      static_cast<rlim_t>(2 * idle_clients + 256));
  std::vector<int> horde = open_idle_clients(server->port(), idle_clients);
  const int horde_connected = static_cast<int>(
      std::count_if(horde.begin(), horde.end(), [](int fd) { return fd >= 0; }));
  if (horde_connected < idle_clients) {
    std::fprintf(stderr, "only %d of %d idle clients connected\n",
                 horde_connected, idle_clients);
  }

  // Warm: loop the same requests; everything must hit. The first pass
  // also checks bit-identity through the full wire round-trip.
  bool identical = true;
  estima::bench::LatencyRecorder warm_lat;
  std::size_t warm_requests = 0;
  const auto warm_start = Clock::now();
  double warm_elapsed = 0.0;
  for (int pass = 0;; ++pass) {
    for (int i = 0; i < campaigns; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto req_start = Clock::now();
      const auto resp = post("/v1/predict", bodies[idx], "text/csv");
      warm_lat.record(req_start, Clock::now());
      ++warm_requests;
      if (pass == 0 && !matches_serial(resp.body, idx)) identical = false;
    }
    warm_elapsed = seconds_since(warm_start);
    if (warm_elapsed >= warm_seconds && pass >= 1) break;
  }
  const double warm_rps = static_cast<double>(warm_requests) / warm_elapsed;
  const auto after_warm = service.stats();

  // Warm batch: all campaigns in one request.
  const std::string batch_body =
      estima::service::frame_bodies(bodies, "campaign");
  std::size_t batch_requests = 0;
  const auto batch_start = Clock::now();
  double batch_elapsed = 0.0;
  for (;;) {
    const auto resp = post("/v1/predict_batch", batch_body, "text/plain");
    ++batch_requests;
    if (batch_requests == 1) {
      const auto records = estima::service::parse_frames(
          resp.body, "prediction", static_cast<std::size_t>(campaigns));
      if (records.size() != serial.size()) identical = false;
      for (std::size_t i = 0; identical && i < records.size(); ++i) {
        identical = matches_serial(records[i], i);
      }
    }
    batch_elapsed = seconds_since(batch_start);
    if (batch_elapsed >= warm_seconds && batch_requests >= 2) break;
  }
  const double batch_cps =
      static_cast<double>(batch_requests) * campaigns / batch_elapsed;

  // Observability overhead over the wire: the same warm request with the
  // server's tracer detached vs attached (set_tracer is an atomic swap),
  // alternating on one keep-alive connection so both sides see the same
  // scheduler and the same cache state. The traced side pays the full
  // path: trace creation, the edge's edge.read/parse/queue.wait/
  // edge.encode/edge.write spans and trace-id echo, the router's
  // parse/cache.lookup/serialize spans, stage histograms, and finish().
  estima::obs::Registry registry;
  estima::obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = -1;  // measuring span cost, not collecting slow
  estima::obs::Tracer tracer(registry, tcfg);
  // Both sides post body `step` of the same sequence.
  const auto warm_request = [&](estima::obs::Tracer* t, std::size_t step) {
    server->set_tracer(t);
    (void)post("/v1/predict", bodies[step % bodies.size()], "text/csv");
  };
  const estima::bench::Overhead overhead = estima::bench::interleaved_overhead(
      [&](std::size_t step) { warm_request(nullptr, step); },
      [&](std::size_t step) { warm_request(&tracer, step); },
      std::max(0.3, warm_seconds));
  server->set_tracer(nullptr);
  const double untraced_rps = 1e9 / overhead.untraced_ns;
  const double traced_rps = 1e9 / overhead.traced_ns;

  // Chaos window: the same warm traffic with ~1% of socket operations on
  // both sides of the wire failing (or short-writing), driven through the
  // client's retry policy. The questions: how much warm throughput
  // survives the fault rate, how many requests ultimately fail, and —
  // above all — whether any delivered 200 is ever a wrong answer.
  double chaos_rps = 0.0;
  double chaos_retention = 0.0;
  double chaos_error_rate = 0.0;
  std::size_t chaos_ok = 0;
  std::size_t chaos_failed = 0;
  std::size_t chaos_wrong = 0;
  if (chaos) {
    std::vector<std::string> expected;
    for (const auto& p : serial) {
      std::ostringstream os;
      estima::core::write_prediction(os, p);
      expected.push_back(os.str());
    }
    estima::net::HttpClient cclient("127.0.0.1", server->port());
    estima::net::RetryConfig rc;
    rc.max_attempts = 5;
    rc.base_delay_ms = 1;
    rc.max_delay_ms = 20;
    rc.budget_ms = 1'000;
    rc.seed = chaos_seed;
    cclient.set_retry_config(rc);

    estima::fault::seed_rng(chaos_seed);
    estima::fault::FaultSpec p;
    p.trigger = estima::fault::FaultSpec::Trigger::kProbability;
    p.probability = 0.01;
    estima::fault::arm("net.read", p);
    estima::fault::arm("client.send", p);
    estima::fault::arm("client.recv", p);
    estima::fault::FaultSpec shortw = p;
    shortw.short_io = true;
    estima::fault::arm("net.write", shortw);

    const auto chaos_start = Clock::now();
    double chaos_elapsed = 0.0;
    for (int pass = 0;; ++pass) {
      for (int i = 0; i < campaigns; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        try {
          const auto resp =
              cclient.request_with_retry("POST", "/v1/predict", bodies[idx],
                                         {{"content-type", "text/csv"}});
          if (resp.status == 200) {
            if (resp.body == expected[idx]) {
              ++chaos_ok;
            } else {
              ++chaos_wrong;
            }
          } else {
            ++chaos_failed;
          }
        } catch (const std::exception&) {
          ++chaos_failed;  // retries exhausted: counted, not fatal
        }
      }
      chaos_elapsed = seconds_since(chaos_start);
      if (chaos_elapsed >= warm_seconds && pass >= 1) break;
    }
    estima::fault::reset();

    chaos_rps = static_cast<double>(chaos_ok) / chaos_elapsed;
    chaos_retention = warm_rps > 0.0 ? chaos_rps / warm_rps : 0.0;
    const std::size_t chaos_total = chaos_ok + chaos_failed + chaos_wrong;
    chaos_error_rate =
        chaos_total > 0
            ? static_cast<double>(chaos_failed + chaos_wrong) /
                  static_cast<double>(chaos_total)
            : 0.0;
  }

  const std::uint64_t warm_hits =
      after_warm.cache.hits - after_cold.cache.hits;
  const std::uint64_t warm_misses =
      after_warm.cache.misses - after_cold.cache.misses;
  const double warm_hit_rate =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) /
                static_cast<double>(warm_hits + warm_misses)
          : 0.0;
  const bool no_new_compute =
      after_warm.predictions_computed == after_cold.predictions_computed;
  const double warm_speedup = warm_rps / cold_rps;
  const bool speedup_ok = warm_speedup >= 10.0;
  const bool hit_rate_ok = warm_hit_rate == 1.0 && no_new_compute;

  // The horde must have been fully connected (and still open) while the
  // warm rate was measured: the idle clients + the bench client itself.
  const auto sstats = server->stats();
  const bool idle_held =
      horde_connected == idle_clients &&
      sstats.open_connections >= static_cast<std::uint64_t>(idle_clients);
  for (int fd : horde) {
    if (fd >= 0) ::close(fd);
  }
  server->stop();

  std::printf("  cold  /v1/predict %10.2f requests/s  (%d in %.3fs)\n",
              cold_rps, campaigns, cold_elapsed);
  std::printf("  warm  /v1/predict %10.2f requests/s  (%zu in %.3fs, "
              "%d idle clients held open: %s)\n",
              warm_rps, warm_requests, warm_elapsed, horde_connected,
              idle_held ? "yes" : "NO");
  std::printf("  warm  batch       %10.2f campaigns/s (%zu requests in %.3fs)\n",
              batch_cps, batch_requests, batch_elapsed);
  std::printf("  warm vs cold speedup: %.1fx (bar: >= 10x)\n", warm_speedup);
  std::printf("  warm hit rate: %.0f%%, no new compute: %s\n",
              100.0 * warm_hit_rate, no_new_compute ? "yes" : "NO");
  std::printf("  bit-identical through the wire: %s\n",
              identical ? "yes" : "NO");
  std::printf("  traced vs untraced warm: untraced %10.2f/s  traced "
              "%10.2f/s  obs overhead %.2f%%\n",
              untraced_rps, traced_rps, overhead.overhead_pct);
  {
    const auto ls = warm_lat.stats();
    std::printf("  warm latency: p50 %.4fms p90 %.4fms p99 %.4fms "
                "p999 %.4fms\n",
                ls.p50_ms, ls.p90_ms, ls.p99_ms, ls.p999_ms);
  }
  if (chaos) {
    std::printf("  chaos (seed=%llu, ~1%% socket faults): %10.2f requests/s, "
                "%.0f%% retention, %.2f%% error rate, wrong answers: %zu\n",
                static_cast<unsigned long long>(chaos_seed), chaos_rps,
                100.0 * chaos_retention, 100.0 * chaos_error_rate,
                chaos_wrong);
  }
  std::printf("  server: accepted=%llu peak_open=%llu served=%llu "
              "4xx=%llu 5xx=%llu\n",
              static_cast<unsigned long long>(sstats.connections_accepted),
              static_cast<unsigned long long>(sstats.peak_connections),
              static_cast<unsigned long long>(sstats.requests_served),
              static_cast<unsigned long long>(sstats.responses_4xx),
              static_cast<unsigned long long>(sstats.responses_5xx));

  estima::obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "net_throughput");
  w.kv("host_cores", estima::bench::host_cores());
  w.kv("campaigns", campaigns);
  w.kv("measured_points", points);
  w.kv("target_cores", target);
  w.kv("prediction_threads", threads);
  w.kv("http_workers", http_threads);
  w.kv("io_threads", io_threads);
  w.kv("idle_clients", idle_clients);
  w.kv("idle_clients_connected", horde_connected);
  w.kv("idle_clients_held_through_warm", idle_held);
  w.kv("peak_connections", sstats.peak_connections);
  w.kv("cold_requests_per_sec", cold_rps, 3);
  w.kv("warm_requests_per_sec", warm_rps, 3);
  w.kv("warm_batch_campaigns_per_sec", batch_cps, 3);
  w.kv("warm_speedup_vs_cold", warm_speedup, 3);
  w.kv("warm_hit_rate", warm_hit_rate, 4);
  w.kv("requests_served", sstats.requests_served);
  w.kv("bit_identical_through_wire", identical);
  w.kv("untraced_warm_requests_per_sec", untraced_rps, 3);
  w.kv("traced_warm_requests_per_sec", traced_rps, 3);
  estima::bench::write_overhead_json(w, overhead);
  estima::bench::write_latency_json(w, "warm_latency", warm_lat);
  w.begin_object("chaos");
  w.kv("enabled", chaos);
  if (chaos) {
    w.kv("seed", chaos_seed);
    w.kv("requests_per_sec", chaos_rps, 3);
    w.kv("throughput_retention", chaos_retention, 4);
    w.kv("error_rate", chaos_error_rate, 4);
    w.kv("ok", static_cast<std::uint64_t>(chaos_ok));
    w.kv("failed", static_cast<std::uint64_t>(chaos_failed));
    w.kv("wrong_answers", static_cast<std::uint64_t>(chaos_wrong));
  }
  w.end_object();
  w.kv("speedup_bar_met", speedup_ok);
  w.end_object();
  estima::bench::write_json_file(out_path, w);

  // A wrong answer under chaos is a correctness failure, same as a
  // bit-identity failure on the clean path.
  return (identical && hit_rate_ok && speedup_ok && idle_held &&
          chaos_wrong == 0)
             ? 0
             : 2;
}
