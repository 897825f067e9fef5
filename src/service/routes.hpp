// The HTTP surface of PredictionService: route table, body formats, and
// status mapping — everything between a decoded net::HttpRequest and the
// serving layer, with no socket code in sight (make_server, below, wires
// ServiceRouter::answer_on_loop into an HttpServer as its LoopAnswer and
// ServiceRouter::handle as its Handler; tests call them directly).
//
// Routes:
//   POST /v1/predict        one campaign, CSV body (write_csv format) ->
//                           200 with one write_prediction record, so the
//                           answer round-trips through read_prediction
//                           bit-identically to an in-process predict_one.
//   POST /v1/predict_batch  many campaigns, length-framed CSV bodies ->
//                           length-framed prediction records in input
//                           order, riding predict_many's dedup and
//                           in-flight join.
//   GET  /v1/stats          ServiceStats + CacheStats as JSON.
//   GET  /v1/health         200 "ok" while serving; 503 "draining" after
//                           set_draining(true) (shutdown in progress) and
//                           503 "shedding" while the edge sheds load —
//                           load balancers stop routing here first.
//   POST /v1/snapshot       spill the cache to the configured snapshot
//                           path; 200 with a small JSON report.
//   GET  /v1/metrics        Prometheus text exposition: every service /
//                           cache / server counter, fault-injection site
//                           counters when compiled in, and the stage +
//                           request latency histograms from the wired
//                           obs::Registry (set_observability).
//   GET  /v1/trace          the slow-request ring as JSON: per-request
//                           span breakdowns (stable span-name schema)
//                           for requests over the tracer's threshold.
//   POST /v1/explain        one campaign, same CSV body as /v1/predict ->
//                           the prediction plus its full fit audit as
//                           JSON: every (kernel, prefix, start) attempt,
//                           every candidate with its outcome, and the
//                           winner's checkpoint scorecard. Computed fresh
//                           with auditing attached — bit-identity makes
//                           the answer equal the cached one — and
//                           retained (bounded, by campaign hash) for:
//   GET  /v1/explain/{hash} the retained audit of a recently explained
//                           campaign; 404 once evicted or never explained.
//
// Streaming campaigns (named, mutable; see campaign_store.hpp):
//   PUT    /v1/campaigns/{name}        create (201) or replace (200) a
//                                      named campaign from a CSV body.
//   POST   /v1/campaigns/{name}/points append points measured at higher
//                                      core counts (CSV body, same
//                                      metadata/categories; malformed or
//                                      duplicate core counts 400), then
//                                      re-predict incrementally through
//                                      the campaign's persistent FitMemo;
//                                      200 with a JSON append report.
//   GET    /v1/campaigns/{name}        the campaign's current prediction
//                                      (write_prediction record, same
//                                      format as /v1/predict), served
//                                      through the ordinary cache under
//                                      the campaign's current hash.
//   DELETE /v1/campaigns/{name}        remove it (200; 404 if unknown).
// Unknown campaign names answer 404; appends invalidate exactly the
// superseded hash's cache entry.
//
// Two steps serve POST /v1/predict, and one rule splits them: a loop
// digests, looks up and copies; the pool parses, computes, renders and
// keeps. answer_on_loop answers a body byte-equal to one the cache keeps
// from the entry's kept record and declines everything else unread;
// handle() parses, hashes and answers, and a hit it renders keeps the
// record and the body beside its entry for the loop's next repeat.
//
// Both stats-style endpoints are built from one consistent snapshot per
// request: ServiceStats and ServerStats are each taken whole under their
// owning lock (never field-by-field from live atomics), so a scrape can
// never observe accepted < closed + open mid-update.
//
// Resilience hooks (all optional; the plain handle(req) form behaves
// exactly as before):
//   * deadline — the context form runs predictions under
//     ctx.deadline (the server's propagated 408 budget), tightened by the
//     request's X-Estima-Deadline-Ms header when present, counted from
//     ctx.arrived; an expired budget answers 408 instead of burning pool
//     CPU on an abandoned answer.
//   * shedding — ctx.shedding flips GET /v1/health to 503 "shedding";
//     every other route, /v1/predict included, answers exactly as when
//     the pool is not shedding (the edge itself sheds the oldest queued
//     requests with 503 + Retry-After).
//
// Batch framing (mirrors the snapshot file's length-framed style — length
// gives binary framing, so a frame can contain anything, and truncation is
// detected, never mis-parsed):
//
//   #campaign len=<bytes>\n      (request)   / #prediction len=<bytes>\n
//   <exactly len bytes>                        (response)
//   ... repeated ...
//   #end\n
//
// Error mapping: unknown path 404; known path, wrong method 405 (with
// Allow); unparseable frames / CSV / campaigns predict() rejects 400 with
// the reason in the body; snapshot endpoint without a configured path 503;
// anything else 500. A client error never caches and never crashes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/http_parser.hpp"
#include "net/server.hpp"
#include "net/server_stats.hpp"
#include "service/campaign_store.hpp"
#include "service/prediction_service.hpp"

namespace estima::obs {
class EventLog;
class Registry;
class TraceContext;
class Tracer;
}  // namespace estima::obs

namespace estima::service {

struct RouterConfig {
  /// Where POST /v1/snapshot spills the cache; empty disables the route
  /// (503), for deployments that must not let clients touch the disk.
  std::string snapshot_path;
  /// Ceiling on campaigns per predict_batch request: one request must not
  /// be able to queue unbounded work.
  std::size_t max_batch_campaigns = 256;
  /// Rendered POST /v1/explain responses retained for GET
  /// /v1/explain/{hash}, keyed by campaign hash (newest evicts oldest;
  /// re-explaining a retained campaign refreshes its entry in place).
  /// 0 disables retention (the GET route answers 404).
  std::size_t explain_retention = 32;
  /// Ceiling on resident named campaigns in the router's CampaignStore;
  /// a PUT past the bound answers 400.
  std::size_t max_campaigns = 256;
};

class ServiceRouter {
 public:
  explicit ServiceRouter(PredictionService& service, RouterConfig cfg = {});

  /// Total function: every exception becomes a status-mapped response.
  /// Equivalent to the context form with a default (no deadline, not
  /// shedding, untraced) context, for in-process callers.
  net::HttpResponse handle(const net::HttpRequest& req);

  /// The form HttpServer's Handler calls: predictions run under
  /// ctx.deadline, /v1/health reports ctx.shedding (see the header
  /// comment), and ctx.trace records the router's spans.
  net::HttpResponse handle(const net::HttpRequest& req,
                           const net::RequestContext& ctx);

  /// The largest request body an event loop digests and the cache keeps
  /// (64 KiB): answer_on_loop declines a larger one before reading it,
  /// and the pool keeps none, so a kept body is never larger.
  static constexpr std::size_t kMaxKeptBodyBytes = 64 * 1024;

  /// HttpServer's LoopAnswer: the byte-cache step of POST /v1/predict,
  /// run on an event loop. A body byte-equal to one the cache keeps is
  /// answered here — a digest, a lookup and a copy of the entry's kept
  /// record, with the event-log line handle() would write — in the same
  /// bytes and counts as handle(). Everything else is declined (nullopt)
  /// with nothing counted or logged: a body no entry keeps (a miss, a
  /// key in flight, a first hit, another encoding, a body the reader
  /// rejects), a body over kMaxKeptBodyBytes, an X-Estima-Deadline-Ms
  /// header, any other route. handle() then serves it on the pool.
  std::optional<net::HttpResponse> answer_on_loop(
      const net::HttpRequest& req, const net::RequestContext& ctx);

  /// Flips /v1/health to 503 "draining" — called by the daemon when a
  /// shutdown signal arrives, so load balancers drain this instance
  /// before its listener actually closes.
  void set_draining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// When set, GET /v1/stats reports the HTTP edge's ServerStats
  /// (connections open/peak, accepted, timeouts, overflow rejections) in
  /// a "server" object next to the service counters. Wired by the daemon
  /// once the server exists; the router is constructed first because the
  /// server's handler needs it.
  void set_server_stats_source(std::function<net::ServerStats()> source);

  /// Wires the observability surface (both borrowed, must outlive the
  /// router; wire before serving starts): `metrics` adds its histograms
  /// and counters to GET /v1/metrics, `tracer` enables GET /v1/trace
  /// (the slow-request ring). Either may be null: /v1/metrics still
  /// serves the service/cache/server counters without a registry, and
  /// /v1/trace answers 503 without a tracer.
  void set_observability(obs::Registry* metrics, obs::Tracer* tracer);

  /// Wires the structured JSONL event log (borrowed, must outlive the
  /// router): when set, handle() emits one compact JSON line per request
  /// — trace id, target, status, campaign hash, cache disposition,
  /// winner kernel, latency — through the log's wait-free ring. Null
  /// (the default) skips the emission entirely.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }

  /// The router-owned store behind /v1/campaigns, exposed for tests and
  /// the daemon's shutdown reporting.
  const CampaignStore& campaigns() const { return campaigns_; }

 private:
  /// Per-request facts the handlers report upward so handle() can emit
  /// one event line after the response exists.
  struct RequestEvent {
    bool has_campaign = false;
    std::uint64_t campaign_hash = 0;
    const char* disposition = "none";
    std::string winner_kernel;
  };

  /// One consistent per-request picture for /v1/stats and /v1/metrics:
  /// each stats struct is copied whole under its owning lock.
  struct StatsSnapshot {
    ServiceStats service;
    bool have_server = false;
    net::ServerStats server;
  };
  StatsSnapshot collect_stats() const;

  net::HttpResponse dispatch(const net::HttpRequest& req,
                             const net::RequestContext& ctx,
                             RequestEvent& ev);
  /// What every answered request gets, on either path: one event-log
  /// line.
  void log_request(const net::HttpRequest& req,
                   const net::RequestContext& ctx, const RequestEvent& ev,
                   std::chrono::steady_clock::time_point start,
                   const net::HttpResponse& resp);
  /// /v1/predict's loop step (answer_on_loop): the response for a body
  /// byte-equal to a kept one, or nullopt with nothing counted. It
  /// digests the body (std::hash<std::string_view>, the `parse` span),
  /// takes PredictionService::lookup_body (`cache.lookup`) and copies the
  /// entry's kept record (`serialize`); it never parses the CSV, hashes
  /// the campaign, renders or keeps.
  std::optional<net::HttpResponse> predict_hit(const net::HttpRequest& req,
                                               obs::TraceContext* trace,
                                               RequestEvent& ev);
  /// /v1/predict's compute step (the pool): parse, hash, answer — hit,
  /// join or fit — and render (or copy a kept record), shedding or not.
  /// The only keeper of records and bodies: a hit (a join included)
  /// whose body is at most kMaxKeptBodyBytes keeps the rendered record
  /// and the request body beside its entry (PredictionService::
  /// keep_record), so the next byte-equal repeat is a loop answer.
  net::HttpResponse handle_predict(const net::HttpRequest& req,
                                   const net::RequestContext& ctx,
                                   const core::Deadline* deadline,
                                   RequestEvent& ev);
  /// The one writer of a /v1/predict answer, for both steps: a copy of
  /// the answer's kept record when it has one, rendered otherwise, in
  /// the `serialize` span either way.
  net::HttpResponse predict_response(const CachedAnswer& answer,
                                     obs::TraceContext* trace,
                                     RequestEvent& ev);
  net::HttpResponse handle_predict_batch(const net::HttpRequest& req,
                                         const net::RequestContext& ctx,
                                         const core::Deadline* deadline);
  net::HttpResponse handle_explain(const net::HttpRequest& req,
                                   const net::RequestContext& ctx,
                                   const core::Deadline* deadline,
                                   RequestEvent& ev);
  net::HttpResponse handle_explain_get(const std::string& hash_hex);
  net::HttpResponse handle_campaigns(const net::HttpRequest& req,
                                     const net::RequestContext& ctx,
                                     const core::Deadline* deadline,
                                     RequestEvent& ev);
  void retain_explain(std::uint64_t hash, std::string body);
  net::HttpResponse handle_stats();
  net::HttpResponse handle_health(const net::RequestContext& ctx);
  net::HttpResponse handle_snapshot();
  net::HttpResponse handle_metrics();
  net::HttpResponse handle_trace();

  PredictionService& service_;
  RouterConfig cfg_;
  CampaignStore campaigns_;
  std::function<net::ServerStats()> server_stats_;
  obs::Registry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  std::atomic<bool> draining_{false};

  /// Bounded (hash -> rendered JSON) retention for GET /v1/explain/{hash},
  /// oldest-first; guarded because handlers run on many pool threads.
  std::mutex explain_mu_;
  std::deque<std::pair<std::uint64_t, std::string>> explains_;
};

/// The daemon's HTTP stack over `router` (borrowed, must outlive the
/// server): repeats of kept bodies answered on the event loops by
/// answer_on_loop, everything else by handle on the handler pool, and
/// the server's ServerStats reported by /v1/stats and /v1/metrics. Not
/// yet started.
std::unique_ptr<net::HttpServer> make_server(ServiceRouter& router,
                                             net::ServerConfig cfg);

/// Assembles a predict_batch request body. Inverse of parse_frames.
std::string frame_bodies(const std::vector<std::string>& bodies,
                         const std::string& tag);

/// Splits a length-framed body back into its payloads. `tag` is
/// "campaign" or "prediction". Throws std::invalid_argument on any
/// deviation from the grammar — missing #end, short payload, garbage
/// between frames, an over-limit frame count or length.
std::vector<std::string> parse_frames(const std::string& body,
                                      const std::string& tag,
                                      std::size_t max_frames);

}  // namespace estima::service
