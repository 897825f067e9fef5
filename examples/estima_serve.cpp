// The runnable serving daemon: ESTIMA's prediction service behind the
// dependency-free HTTP/1.1 edge.
//
//   ./example_estima_serve [flags]
//     --port=P             bind port (default 8080; 0 = ephemeral)
//     --address=A          bind address (default 127.0.0.1)
//     --threads=N          prediction pool size (default: hardware)
//     --http-threads=N     request-handler pool size (default 8)
//     --io-threads=N       event-loop (I/O) threads (default 2)
//     --max-connections=N  open-connection admission cap; over it new
//                          connections get 503 + close (default 4096,
//                          0 = unlimited)
//     --cache-capacity=N   cached predictions (default 4096)
//     --target=T           extrapolation horizon in cores (default 48)
//     --snapshot-file=PATH snapshot location: restored on startup
//                          whenever the file exists (remove it to start
//                          cold), spilled on SIGINT/SIGTERM drain, and
//                          enables POST /v1/snapshot (call it on a
//                          schedule for periodic snapshots)
//     --max-queue-depth=N  handler-pool queue bound; over it the oldest
//                          queued request is shed 503 + Retry-After
//                          (default 256, 0 = unbounded)
//     --slow-trace-ms=T    requests slower than T ms land in the slow
//                          ring served by GET /v1/trace and dumped on
//                          SIGUSR1 (default 250; 0 retains every
//                          request, negative disables the ring)
//     --trace-ring=N       slow-ring capacity (default 64)
//     --event-log=PATH     structured JSONL event log: one compact JSON
//                          line per request (trace id, target, status,
//                          campaign hash, cache disposition, winner
//                          kernel, latency) appended by a background
//                          writer thread; the hot path only enqueues
//                          into a wait-free ring (default: off)
//     --event-log-rotate-mb=N  rotate the event log when it would exceed
//                          N MiB, keeping one .1 predecessor (default 64)
//     --max-campaigns=N    resident named-campaign cap for the streaming
//                          /v1/campaigns routes (default 256)
//     --explain-retention=N POST /v1/explain responses retained for GET
//                          /v1/explain/{hash} (default 32, 0 disables)
//
// Serving surface (see src/service/routes.hpp for body formats):
//   POST /v1/predict        one CSV campaign -> one prediction record
//   POST /v1/predict_batch  length-framed CSV campaigns -> predictions
//   POST /v1/explain        one CSV campaign -> prediction + full fit
//                           audit (every attempt/candidate + winner
//                           scorecard) as JSON
//   GET  /v1/explain/{hash} the retained audit of a recently explained
//                           campaign (404 once evicted)
//   GET  /v1/stats          service + cache counters as JSON
//   GET  /v1/health         200 serving / 503 draining or shedding
//   POST /v1/snapshot       spill the cache to --snapshot-file
//   GET  /v1/metrics        Prometheus text exposition (counters,
//                           per-stage latency histograms, per-kernel
//                           fit attempt/latency families, build info)
//   GET  /v1/trace          slow-request ring: per-request span
//                           breakdowns as JSON
//
// Resilience: each request's 408 budget is propagated into the predictor
// as a cooperative deadline (plus any X-Estima-Deadline-Ms the client
// sends; both count from the request's arrival, so queueing spends
// them), and overload sheds the oldest queued request with 503 +
// Retry-After while /v1/health answers 503 "shedding". Cached answers
// never expire: a campaign's hash folds in the config, so one key has
// one answer.
//
// Observability: every request is traced (edge.read, queue.wait, parse,
// cache.lookup, fit.enumerate, fit.levmar, fit.realism, serialize,
// edge.write, edge.encode) with its id echoed in X-Estima-Trace-Id;
// SIGUSR1 prints the slow ring to stdout without disturbing serving.
//
// Shutdown is a graceful drain: on SIGINT/SIGTERM /v1/health flips to
// 503 "draining", the listener closes, in-flight responses finish, and
// the cache is snapshotted (when --snapshot-file is set) so the next
// start answers warm.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/fit_audit.hpp"
#include "core/predictor.hpp"
#include "examples/cli_flags.hpp"
#include "net/fd_limit.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"
#include "service/routes.hpp"

namespace {

std::atomic<int> g_signal{0};
std::atomic<bool> g_dump_traces{false};

void on_signal(int sig) { g_signal.store(sig); }
void on_sigusr1(int) { g_dump_traces.store(true); }

void dump_slow_traces(const estima::obs::Tracer& tracer) {
  const auto slow = tracer.slow_traces();
  std::printf("slow-request ring: %zu trace(s)\n", slow.size());
  for (const auto& t : slow) {
    std::printf("  trace %s total=%.3fms\n",
                estima::obs::format_trace_id(t.trace_id).c_str(),
                static_cast<double>(t.total_ns) / 1e6);
    for (const auto& sp : t.spans) {
      std::printf("    %-13s start=%.3fms dur=%.3fms count=%llu%s\n",
                  estima::obs::stage_name(sp.stage),
                  static_cast<double>(sp.start_off_ns) / 1e6,
                  static_cast<double>(sp.total_ns) / 1e6,
                  static_cast<unsigned long long>(sp.count),
                  sp.nested ? " (nested)" : "");
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace estima;
  examples::Flags flags(argc, argv);
  const int port = flags.integer("port", 8080);
  const std::string address = flags.str("address", "127.0.0.1");
  const int threads = flags.integer(
      "threads", static_cast<int>(parallel::ThreadPool::hardware_threads()));
  const int http_threads = flags.integer("http-threads", 8);
  const int io_threads = flags.integer("io-threads", 2);
  const int max_connections = flags.integer("max-connections", 4096);
  const int cache_capacity = flags.integer("cache-capacity", 4096);
  const int target = flags.integer("target", 48);
  const std::string snapshot_file = flags.str("snapshot-file", "");
  const int max_queue_depth = flags.integer("max-queue-depth", 256);
  const int slow_trace_ms = flags.integer("slow-trace-ms", 250);
  const int trace_ring = flags.integer("trace-ring", 64);
  const std::string event_log_path = flags.str("event-log", "");
  const int event_log_rotate_mb = flags.integer("event-log-rotate-mb", 64);
  const int explain_retention = flags.integer("explain-retention", 32);
  const int max_campaigns = flags.integer("max-campaigns", 256);
  if (const auto err = flags.error()) {
    std::fprintf(stderr, "example_estima_serve: %s\n", err->c_str());
    return 2;
  }

  parallel::ThreadPool pool(
      static_cast<std::size_t>(threads > 0 ? threads : 1));

  // The observability spine: one registry holds every histogram and
  // counter; the tracer owns the per-stage histograms plus the
  // slow-request ring; the per-kernel fit metrics are wired into the
  // prediction config below (service config copies the pointer). All of
  // it lives for the whole process, outliving the server and router that
  // borrow it.
  obs::Registry registry;
  obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = slow_trace_ms;
  tcfg.ring_capacity =
      static_cast<std::size_t>(trace_ring > 0 ? trace_ring : 0);
  obs::Tracer tracer(registry, tcfg);
  core::FitMetrics fit_metrics;
  fit_metrics.init(registry);

  std::unique_ptr<obs::EventLog> event_log;
  if (!event_log_path.empty()) {
    obs::EventLogConfig ecfg;
    ecfg.path = event_log_path;
    ecfg.rotate_bytes = static_cast<std::size_t>(
                            event_log_rotate_mb > 0 ? event_log_rotate_mb : 64)
                        << 20;
    event_log = std::make_unique<obs::EventLog>(ecfg);
  }

  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(target);
  scfg.cache_capacity = static_cast<std::size_t>(
      cache_capacity > 0 ? cache_capacity : 4096);
  core::ExecContext base(&pool);
  base.metrics = &fit_metrics;
  service::PredictionService svc(scfg, base);

  if (!snapshot_file.empty() && std::filesystem::exists(snapshot_file)) {
    try {
      const auto restored = svc.restore_from(snapshot_file);
      std::printf("restored %zu cached predictions from %s (%zu skipped)\n",
                  restored.entries_loaded(), snapshot_file.c_str(),
                  restored.skipped.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cold start, snapshot not restored: %s\n",
                   e.what());
    }
  }

  service::RouterConfig rcfg;
  rcfg.snapshot_path = snapshot_file;
  rcfg.explain_retention =
      static_cast<std::size_t>(explain_retention > 0 ? explain_retention : 0);
  rcfg.max_campaigns =
      static_cast<std::size_t>(max_campaigns > 0 ? max_campaigns : 256);
  service::ServiceRouter router(svc, rcfg);
  router.set_observability(&registry, &tracer);
  router.set_event_log(event_log.get());

  // One fd per connection plus listener/pipes/snapshot headroom: the
  // admission cap is only honest if the process may actually hold that
  // many sockets.
  if (max_connections > 0) {
    net::raise_fd_limit(static_cast<rlim_t>(max_connections) + 512);
  }

  net::ServerConfig ncfg;
  ncfg.bind_address = address;
  ncfg.port = port;
  ncfg.worker_threads =
      static_cast<std::size_t>(http_threads > 0 ? http_threads : 1);
  ncfg.io_threads = static_cast<std::size_t>(io_threads > 0 ? io_threads : 1);
  ncfg.max_connections =
      static_cast<std::size_t>(max_connections > 0 ? max_connections : 0);
  ncfg.max_queue_depth =
      static_cast<std::size_t>(max_queue_depth > 0 ? max_queue_depth : 0);
  ncfg.tracer = &tracer;
  ncfg.event_log = event_log.get();
  // Cache hits are answered on the event loops; the handler pool
  // computes the rest.
  const std::unique_ptr<net::HttpServer> server =
      service::make_server(router, ncfg);
  try {
    server->start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("estima_serve listening on %s:%d "
              "(%d prediction threads, %d handler workers, %d io loops, "
              "cache %d, max %d connections)\n",
              address.c_str(), server->port(), threads, http_threads,
              io_threads, cache_capacity, max_connections);
  if (!snapshot_file.empty()) {
    std::printf("snapshot file: %s\n", snapshot_file.c_str());
  }
  if (event_log) {
    std::printf("event log: %s (rotate at %d MiB)\n", event_log_path.c_str(),
                event_log_rotate_mb);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR1, on_sigusr1);
  while (g_signal.load() == 0) {
    if (g_dump_traces.exchange(false)) dump_slow_traces(tracer);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("signal %d: draining...\n", g_signal.load());
  // Health goes dark before the listener does, so a load balancer polling
  // /v1/health stops routing here while the drain still answers.
  router.set_draining(true);
  server->stop();

  if (!snapshot_file.empty()) {
    try {
      const auto written = svc.snapshot_to(snapshot_file);
      std::printf("snapshotted %zu cached predictions to %s\n",
                  written.entries_written, snapshot_file.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shutdown snapshot not written: %s\n", e.what());
      return 1;
    }
  }
  if (event_log) {
    event_log->stop();
    std::printf("event log: %llu line(s) written, %llu dropped\n",
                static_cast<unsigned long long>(event_log->lines_written()),
                static_cast<unsigned long long>(event_log->lines_dropped()));
  }
  const auto stats = svc.stats();
  std::printf("served: submitted=%llu computed=%llu hits=%llu\n",
              static_cast<unsigned long long>(stats.campaigns_submitted),
              static_cast<unsigned long long>(stats.predictions_computed),
              static_cast<unsigned long long>(stats.cache.hits));
  return 0;
}
