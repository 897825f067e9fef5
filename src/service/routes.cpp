#include "service/routes.hpp"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "core/deadline.hpp"
#include "core/fit_audit.hpp"
#include "core/measurement.hpp"
#include "core/prediction_io.hpp"
#include "fault/fault_injection.hpp"
#include "obs/event_log.hpp"
#include "obs/json_writer.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "service/prediction_service.hpp"

namespace estima::service {
namespace {

// A frame header is "#<tag> len=<digits>\n"; payloads are arbitrary bytes,
// so a corrupted length cannot be resynced — batch parsing is all-or-400.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;

/// The version label of the estima_build_info gauge on /v1/metrics.
constexpr const char* kBuildVersion = "dev";

net::HttpResponse text_response(int status, const std::string& body) {
  net::HttpResponse resp;
  resp.status = status;
  resp.headers.emplace_back("content-type", "text/plain");
  resp.body = body;
  if (!resp.body.empty() && resp.body.back() != '\n') resp.body += '\n';
  return resp;
}

net::HttpResponse method_not_allowed(const std::string& allow) {
  net::HttpResponse resp = text_response(405, "method not allowed");
  resp.headers.emplace_back("allow", allow);
  return resp;
}

net::HttpResponse json_response(const obs::JsonWriter& w) {
  net::HttpResponse resp;
  resp.status = 200;
  resp.headers.emplace_back("content-type", "application/json");
  resp.body = w.str();
  return resp;
}

/// The `prediction v=1` record of a cached answer: a copy of its kept
/// record when there is one, rendered otherwise — the same bytes.
std::string record_of(const CachedAnswer& a) {
  return a.record ? *a.record : core::render_prediction(*a.prediction);
}

std::string hash_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// One FitAudit as JSON (keys opened by the caller): the winner block,
/// then every attempt and candidate in the fixed serial slot order the
/// engines emitted them in — the JSON is byte-identical whenever the
/// audit is, so the bit-identity contract survives serialization.
void write_fit_audit(obs::JsonWriter& w, const core::FitAudit& a) {
  w.kv("has_winner", a.has_winner);
  if (a.has_winner) {
    w.begin_object("winner");
    w.kv("kernel", core::kernel_name(a.winner_kernel));
    w.kv("prefix", a.winner_prefix);
    w.kv("checkpoints", a.winner_checkpoints);
    w.kv("rmse", a.winner_rmse);
    w.begin_array("scorecard");
    for (std::size_t i = 0; i < a.checkpoint_cores.size(); ++i) {
      w.begin_object();
      w.kv("cores", a.checkpoint_cores[i]);
      w.kv("predicted", a.checkpoint_predicted[i]);
      w.kv("actual", a.checkpoint_actual[i]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.begin_array("attempts");
  for (const auto& at : a.attempts) {
    w.begin_object();
    w.kv("kernel", core::kernel_name(at.kernel));
    w.kv("prefix", at.prefix_len);
    w.kv("start", at.start);
    w.kv("outcome", core::fit_outcome_name(at.outcome));
    w.kv("rmse", at.rmse);
    w.kv("iterations", at.iterations);
    w.kv("model_evals", at.model_evals);
    w.end_object();
  }
  w.end_array();
  w.begin_array("candidates");
  for (const auto& c : a.candidates) {
    w.begin_object();
    w.kv("kernel", core::kernel_name(c.kernel));
    w.kv("prefix", c.prefix_len);
    w.kv("checkpoints", c.checkpoints);
    w.kv("outcome", core::fit_outcome_name(c.outcome));
    w.kv("realistic_mask", c.realistic_mask);
    w.kv("checkpoint_rmse", c.checkpoint_rmse);
    w.end_object();
  }
  w.end_array();
  w.kv("fits_cancelled", static_cast<std::uint64_t>(a.fits_cancelled));
  w.kv("fits_aborted", static_cast<std::uint64_t>(a.fits_aborted));
}

}  // namespace

std::string frame_bodies(const std::vector<std::string>& bodies,
                         const std::string& tag) {
  std::string out;
  for (const auto& b : bodies) {
    out += "#" + tag + " len=" + std::to_string(b.size()) + "\n";
    out += b;
  }
  out += "#end\n";
  return out;
}

std::vector<std::string> parse_frames(const std::string& body,
                                      const std::string& tag,
                                      std::size_t max_frames) {
  const std::string head = "#" + tag + " len=";
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    if (body.compare(pos, 5, "#end\n") == 0) {
      if (pos + 5 != body.size()) {
        throw std::invalid_argument(tag + " framing: bytes after #end");
      }
      return out;
    }
    if (body.compare(pos, head.size(), head) != 0) {
      throw std::invalid_argument(tag + " framing: expected '#" + tag +
                                  " len=' or '#end' at byte " +
                                  std::to_string(pos));
    }
    pos += head.size();
    const std::size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) {
      throw std::invalid_argument(tag + " framing: unterminated frame header");
    }
    std::size_t len = 0;
    std::size_t digits = 0;
    for (; pos + digits < nl; ++digits) {
      const char c = body[pos + digits];
      if (c < '0' || c > '9') {
        throw std::invalid_argument(tag + " framing: malformed frame length");
      }
      len = len * 10 + static_cast<std::size_t>(c - '0');
      if (len > kMaxFrameBytes) {
        throw std::invalid_argument(tag + " framing: frame length too large");
      }
    }
    if (digits == 0) {
      throw std::invalid_argument(tag + " framing: malformed frame length");
    }
    pos = nl + 1;
    if (body.size() - pos < len) {
      throw std::invalid_argument(tag + " framing: truncated frame payload");
    }
    if (out.size() >= max_frames) {
      throw std::invalid_argument(tag + " framing: more than " +
                                  std::to_string(max_frames) + " frames");
    }
    out.push_back(body.substr(pos, len));
    pos += len;
  }
}

std::unique_ptr<net::HttpServer> make_server(ServiceRouter& router,
                                             net::ServerConfig cfg) {
  auto server = std::make_unique<net::HttpServer>(
      std::move(cfg),
      [&router](const net::HttpRequest& req, const net::RequestContext& ctx) {
        return router.handle(req, ctx);
      },
      [&router](const net::HttpRequest& req, const net::RequestContext& ctx) {
        return router.answer_on_loop(req, ctx);
      });
  router.set_server_stats_source(
      [s = server.get()] { return s->stats(); });
  return server;
}

ServiceRouter::ServiceRouter(PredictionService& service, RouterConfig cfg)
    : service_(service),
      cfg_(std::move(cfg)),
      campaigns_(service_, cfg_.max_campaigns) {}

void ServiceRouter::set_server_stats_source(
    std::function<net::ServerStats()> source) {
  server_stats_ = std::move(source);
}

void ServiceRouter::set_observability(obs::Registry* metrics,
                                      obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
}

net::HttpResponse ServiceRouter::handle(const net::HttpRequest& req) {
  return handle(req, net::RequestContext{});
}

net::HttpResponse ServiceRouter::handle(const net::HttpRequest& req,
                                        const net::RequestContext& ctx) {
  const auto start = std::chrono::steady_clock::now();
  RequestEvent ev;
  net::HttpResponse resp = dispatch(req, ctx, ev);
  log_request(req, ctx, ev, start, resp);
  return resp;
}

std::optional<net::HttpResponse> ServiceRouter::answer_on_loop(
    const net::HttpRequest& req, const net::RequestContext& ctx) {
  // Only a body the cache can keep, of a request the pool would answer
  // from the cache without a deadline of its own: a client deadline
  // header (valid or not) goes to the pool, which owns the 400 for a bad
  // one.
  if (req.body.size() > kMaxKeptBodyBytes || req.target != "/v1/predict" ||
      req.method != "POST" || req.header("x-estima-deadline-ms") != nullptr) {
    return std::nullopt;
  }
  const auto start = std::chrono::steady_clock::now();
  RequestEvent ev;
  std::optional<net::HttpResponse> resp =
      predict_hit(req, ctx.trace.get(), ev);
  if (resp) log_request(req, ctx, ev, start, *resp);
  return resp;
}

void ServiceRouter::log_request(const net::HttpRequest& req,
                                const net::RequestContext& ctx,
                                const RequestEvent& ev,
                                std::chrono::steady_clock::time_point start,
                                const net::HttpResponse& resp) {
  if (event_log_ == nullptr) return;
  // One line per request. The handler reported the cache disposition; an
  // error response overrides it (408 = the deadline cancelled the
  // computation, other 4xx/5xx = error), because the handler's answer
  // never reached the client.
  const char* disposition = ev.disposition;
  if (resp.status == 408) {
    disposition = "cancelled";
  } else if (resp.status >= 400) {
    disposition = "error";
  }
  const double latency_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()) /
      1e6;
  event_log_->emit(obs::format_request_event(
      ctx.trace ? obs::format_trace_id(ctx.trace->trace_id()) : "",
      req.target, resp.status,
      ev.has_campaign ? hash_hex(ev.campaign_hash) : "", disposition,
      ev.winner_kernel, latency_ms));
}

net::HttpResponse ServiceRouter::dispatch(const net::HttpRequest& req,
                                          const net::RequestContext& ctx,
                                          RequestEvent& ev) {
  // The effective deadline: the edge's propagated 408 budget, tightened
  // by the client's own X-Estima-Deadline-Ms header. Both count from the
  // request's arrival, so time spent queued is charged against the
  // header's budget as it is against the edge's. A client header with
  // no propagated budget gets a request-local deadline instead — the
  // stack object outlives every fit this request runs, because handle()
  // does not return until predict() does.
  core::Deadline local;
  core::Deadline* deadline = ctx.deadline.get();
  try {
    if (const std::string* hdr = req.header("x-estima-deadline-ms")) {
      char* end = nullptr;
      errno = 0;
      const long ms = std::strtol(hdr->c_str(), &end, 10);
      if (end == hdr->c_str() || *end != '\0' || ms < 0 || errno == ERANGE) {
        return text_response(400, "bad x-estima-deadline-ms value: " + *hdr);
      }
      if (deadline == nullptr) deadline = &local;
      const auto from = ctx.arrived == std::chrono::steady_clock::time_point{}
                            ? std::chrono::steady_clock::now()
                            : ctx.arrived;
      deadline->tighten(from, std::chrono::milliseconds(ms));
    }
    if (req.target == "/v1/predict") {
      if (req.method != "POST") return method_not_allowed("POST");
      return handle_predict(req, ctx, deadline, ev);
    }
    if (req.target == "/v1/predict_batch") {
      if (req.method != "POST") return method_not_allowed("POST");
      return handle_predict_batch(req, ctx, deadline);
    }
    if (req.target == "/v1/explain") {
      if (req.method != "POST") return method_not_allowed("POST");
      return handle_explain(req, ctx, deadline, ev);
    }
    if (req.target.rfind("/v1/explain/", 0) == 0) {
      if (req.method != "GET") return method_not_allowed("GET");
      return handle_explain_get(req.target.substr(sizeof "/v1/explain/" - 1));
    }
    if (req.target.rfind("/v1/campaigns/", 0) == 0) {
      return handle_campaigns(req, ctx, deadline, ev);
    }
    if (req.target == "/v1/stats") {
      if (req.method != "GET") return method_not_allowed("GET");
      return handle_stats();
    }
    if (req.target == "/v1/metrics") {
      if (req.method != "GET") return method_not_allowed("GET");
      return handle_metrics();
    }
    if (req.target == "/v1/trace") {
      if (req.method != "GET") return method_not_allowed("GET");
      return handle_trace();
    }
    if (req.target == "/v1/health") {
      if (req.method != "GET") return method_not_allowed("GET");
      return handle_health(ctx);
    }
    if (req.target == "/v1/snapshot") {
      if (req.method != "POST") return method_not_allowed("POST");
      return handle_snapshot();
    }
    return text_response(404, "no such route: " + req.target);
  } catch (const core::DeadlineExceeded& e) {
    // The budget ran out mid-computation; the pipeline stopped at a fit
    // boundary without producing (or caching) a partial answer.
    return text_response(408, e.what());
  } catch (const CampaignNotFound& e) {
    return text_response(404, e.what());
  } catch (const std::invalid_argument& e) {
    // Bad campaign data — CSV, framing, or a campaign predict() rejects.
    return text_response(400, e.what());
  } catch (const std::exception& e) {
    return text_response(500, e.what());
  }
}

std::optional<net::HttpResponse> ServiceRouter::predict_hit(
    const net::HttpRequest& req, obs::TraceContext* trace,
    RequestEvent& ev) {
  // The spans are added only once the request is answered here: a
  // declined attempt leaves the trace to the pool path unchanged. The
  // digest is this path's `parse`.
  using Clock = std::chrono::steady_clock;
  const auto now = [trace] {
    return trace != nullptr ? Clock::now() : Clock::time_point{};
  };
  const Clock::time_point parse_begin = now();
  const std::size_t digest = std::hash<std::string_view>{}(req.body);
  const Clock::time_point parse_end = now();
  std::uint64_t key = 0;
  const CachedAnswer hit = service_.lookup_body(digest, req.body, &key);
  if (!hit.prediction) return std::nullopt;
  if (trace != nullptr) {
    trace->add(obs::Stage::kParse, parse_begin, parse_end);
    trace->add(obs::Stage::kCacheLookup, parse_end, Clock::now());
  }
  ev.has_campaign = true;
  ev.campaign_hash = key;
  ev.disposition = "hit";
  try {
    return predict_response(hit, trace, ev);
  } catch (const std::exception& e) {
    // Counted as a hit already, so answered here, as dispatch() would.
    return text_response(500, e.what());
  }
}

net::HttpResponse ServiceRouter::handle_predict(
    const net::HttpRequest& req, const net::RequestContext& ctx,
    const core::Deadline* deadline, RequestEvent& ev) {
  obs::TraceContext* const trace = ctx.trace.get();
  obs::SpanTimer parse_span(trace, obs::Stage::kParse);
  const core::MeasurementSet ms = core::read_csv(req.body);
  parse_span.stop();
  ev.has_campaign = true;
  ev.campaign_hash = service_.hash_of(ms);
  CacheDisposition disp = CacheDisposition::kUnknown;
  const CachedAnswer answer =
      service_.answer(ev.campaign_hash, ms, deadline, trace, &disp);
  ev.disposition = disp == CacheDisposition::kMiss ? "miss" : "hit";
  net::HttpResponse resp = predict_response(answer, trace, ev);
  // A hit keeps its bytes and its body, so the next byte-equal repeat is
  // a loop answer; a miss keeps nothing, so computing a campaign never
  // costs a record's memory.
  if (disp == CacheDisposition::kHit && req.body.size() <= kMaxKeptBodyBytes) {
    service_.keep_record(ev.campaign_hash, answer, resp.body, req.body,
                         std::hash<std::string_view>{}(req.body));
  }
  return resp;
}

net::HttpResponse ServiceRouter::predict_response(const CachedAnswer& answer,
                                                  obs::TraceContext* trace,
                                                  RequestEvent& ev) {
  ev.winner_kernel = core::kernel_name(answer.prediction->factor_fn.type);
  obs::SpanTimer serialize_span(trace, obs::Stage::kSerialize);
  net::HttpResponse resp;
  resp.status = 200;
  resp.headers.emplace_back("content-type", "text/plain");
  resp.body = record_of(answer);
  return resp;
}

net::HttpResponse ServiceRouter::handle_explain(
    const net::HttpRequest& req, const net::RequestContext& ctx,
    const core::Deadline* deadline, RequestEvent& ev) {
  obs::TraceContext* const trace = ctx.trace.get();
  obs::SpanTimer parse_span(trace, obs::Stage::kParse);
  const core::MeasurementSet ms = core::read_csv(req.body);
  parse_span.stop();
  const std::uint64_t hash = service_.hash_of(ms);
  ev.has_campaign = true;
  ev.campaign_hash = hash;
  core::PredictionAudit audit;
  const core::Prediction pred = service_.explain(ms, audit, deadline, trace);
  // explain always computes fresh — an audit only describes fits that
  // actually ran — so its disposition is a miss by construction.
  ev.disposition = "miss";
  ev.winner_kernel = core::kernel_name(pred.factor_fn.type);

  obs::SpanTimer serialize_span(trace, obs::Stage::kSerialize);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("campaign_hash", hash_hex(hash));
  w.begin_object("prediction");
  w.begin_array("cores");
  for (int c : pred.cores) w.value(c);
  w.end_array();
  w.begin_array("time_s");
  for (double t : pred.time_s) w.value(t);
  w.end_array();
  w.begin_array("stalls_per_core");
  for (double s : pred.stalls_per_core) w.value(s);
  w.end_array();
  w.kv("factor_kernel", core::kernel_name(pred.factor_fn.type));
  w.kv("factor_correlation", pred.factor_correlation);
  w.kv("factor_used_relaxed", audit.factor_used_relaxed);
  w.end_object();
  w.begin_object("audit");
  w.begin_array("categories");
  for (const auto& cat : audit.categories) {
    w.begin_object();
    w.kv("name", cat.name);
    write_fit_audit(w, cat.audit);
    w.end_object();
  }
  w.end_array();
  w.begin_object("factor");
  write_fit_audit(w, audit.factor);
  w.end_object();
  w.end_object();
  w.end_object();
  retain_explain(hash, w.str());
  return json_response(w);
}

void ServiceRouter::retain_explain(std::uint64_t hash, std::string body) {
  if (cfg_.explain_retention == 0) return;
  std::lock_guard<std::mutex> lock(explain_mu_);
  for (auto& e : explains_) {
    if (e.first == hash) {
      e.second = std::move(body);
      return;
    }
  }
  explains_.emplace_back(hash, std::move(body));
  while (explains_.size() > cfg_.explain_retention) explains_.pop_front();
}

net::HttpResponse ServiceRouter::handle_explain_get(
    const std::string& hash_str) {
  if (hash_str.empty() || hash_str.size() > 16) {
    return text_response(400, "bad campaign hash: " + hash_str);
  }
  std::uint64_t hash = 0;
  for (char c : hash_str) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return text_response(400, "bad campaign hash: " + hash_str);
    }
    hash = (hash << 4) | static_cast<std::uint64_t>(v);
  }
  std::lock_guard<std::mutex> lock(explain_mu_);
  for (const auto& e : explains_) {
    if (e.first == hash) {
      net::HttpResponse resp;
      resp.status = 200;
      resp.headers.emplace_back("content-type", "application/json");
      resp.body = e.second;
      return resp;
    }
  }
  return text_response(404, "no retained audit for campaign " + hash_str);
}

net::HttpResponse ServiceRouter::handle_campaigns(
    const net::HttpRequest& req, const net::RequestContext& ctx,
    const core::Deadline* deadline, RequestEvent& ev) {
  // Target shapes: /v1/campaigns/{name} and /v1/campaigns/{name}/points.
  std::string rest = req.target.substr(sizeof "/v1/campaigns/" - 1);
  bool points = false;
  constexpr const char kPointsSuffix[] = "/points";
  constexpr std::size_t kSuffixLen = sizeof kPointsSuffix - 1;
  if (rest.size() > kSuffixLen &&
      rest.compare(rest.size() - kSuffixLen, kSuffixLen, kPointsSuffix) ==
          0) {
    points = true;
    rest.resize(rest.size() - kSuffixLen);
  }
  const std::string& name = rest;
  if (name.empty() || name.size() > 128 ||
      name.find('/') != std::string::npos) {
    return text_response(400, "bad campaign name: " + name);
  }

  obs::TraceContext* const trace = ctx.trace.get();
  if (points) {
    // POST /v1/campaigns/{name}/points: append, invalidate the superseded
    // hash, then re-predict through the campaign's persistent FitMemo —
    // only fits reaching into the new points execute, and the answer
    // lands in the cache under the new hash for subsequent GETs.
    if (req.method != "POST") return method_not_allowed("POST");
    obs::SpanTimer parse_span(trace, obs::Stage::kParse);
    const core::MeasurementSet delta = core::read_csv(req.body);
    parse_span.stop();
    CampaignInfo info = campaigns_.append(name, delta);
    CacheDisposition disp = CacheDisposition::kUnknown;
    const std::shared_ptr<const core::Prediction> pred =
        campaigns_.answer(name, deadline, trace, &disp, &info).prediction;
    ev.has_campaign = true;
    ev.campaign_hash = info.hash;
    ev.disposition = disp == CacheDisposition::kMiss ? "miss" : "hit";
    ev.winner_kernel = core::kernel_name(pred->factor_fn.type);
    obs::JsonWriter w;
    w.begin_object();
    w.kv("name", info.name);
    w.kv("version", info.version);
    w.kv("campaign_hash", hash_hex(info.hash));
    w.kv("points", static_cast<std::uint64_t>(info.points));
    w.kv("appended", static_cast<std::uint64_t>(delta.num_points()));
    w.kv("winner_kernel", core::kernel_name(pred->factor_fn.type));
    w.kv("memo_hits", info.memo.hits);
    w.kv("memo_misses", info.memo.misses);
    w.kv("memo_entries", info.memo.entries);
    w.kv("memo_bytes", info.memo.bytes);
    w.end_object();
    return json_response(w);
  }

  if (req.method == "PUT") {
    // Create (201) or replace (200) from the same CSV body /v1/predict
    // takes; a campaign predict() would reject is never stored.
    obs::SpanTimer parse_span(trace, obs::Stage::kParse);
    core::MeasurementSet ms = core::read_csv(req.body);
    parse_span.stop();
    bool created = false;
    const CampaignInfo info =
        campaigns_.create(name, std::move(ms), &created);
    ev.has_campaign = true;
    ev.campaign_hash = info.hash;
    obs::JsonWriter w;
    w.begin_object();
    w.kv("name", info.name);
    w.kv("version", info.version);
    w.kv("campaign_hash", hash_hex(info.hash));
    w.kv("points", static_cast<std::uint64_t>(info.points));
    w.kv("created", created);
    w.end_object();
    net::HttpResponse resp = json_response(w);
    resp.status = created ? 201 : 200;
    return resp;
  }
  if (req.method == "GET") {
    // The campaign's current prediction, same record format as
    // /v1/predict: cache-fronted under the current hash, memo-backed on
    // a miss.
    CampaignInfo info;
    CacheDisposition disp = CacheDisposition::kUnknown;
    const CachedAnswer answer =
        campaigns_.answer(name, deadline, trace, &disp, &info);
    ev.has_campaign = true;
    ev.campaign_hash = info.hash;
    ev.disposition = disp == CacheDisposition::kMiss ? "miss" : "hit";
    ev.winner_kernel = core::kernel_name(answer.prediction->factor_fn.type);
    obs::SpanTimer serialize_span(trace, obs::Stage::kSerialize);
    net::HttpResponse resp;
    resp.status = 200;
    resp.headers.emplace_back("content-type", "text/plain");
    resp.headers.emplace_back("x-estima-campaign-version",
                              std::to_string(info.version));
    resp.headers.emplace_back("x-estima-campaign-hash", hash_hex(info.hash));
    resp.body = record_of(answer);
    return resp;
  }
  if (req.method == "DELETE") {
    if (!campaigns_.remove(name)) {
      return text_response(404, "campaign not found: " + name);
    }
    return text_response(200, "deleted");
  }
  return method_not_allowed("PUT, GET, DELETE");
}

net::HttpResponse ServiceRouter::handle_health(
    const net::RequestContext& ctx) {
  if (draining_.load(std::memory_order_relaxed)) {
    return text_response(503, "draining");
  }
  if (ctx.shedding) return text_response(503, "shedding");
  return text_response(200, "ok");
}

net::HttpResponse ServiceRouter::handle_predict_batch(
    const net::HttpRequest& req, const net::RequestContext& ctx,
    const core::Deadline* deadline) {
  obs::TraceContext* const trace = ctx.trace.get();
  obs::SpanTimer parse_span(trace, obs::Stage::kParse);
  const std::vector<std::string> csvs =
      parse_frames(req.body, "campaign", cfg_.max_batch_campaigns);
  std::vector<core::MeasurementSet> campaigns;
  campaigns.reserve(csvs.size());
  for (std::size_t i = 0; i < csvs.size(); ++i) {
    try {
      campaigns.push_back(core::read_csv(csvs[i]));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("campaign frame " + std::to_string(i) +
                                  ": " + e.what());
    }
  }
  parse_span.stop();
  const std::vector<core::Prediction> preds =
      service_.predict_many(campaigns, deadline, trace);
  obs::SpanTimer serialize_span(trace, obs::Stage::kSerialize);
  std::vector<std::string> records;
  records.reserve(preds.size());
  for (const auto& p : preds) records.push_back(core::render_prediction(p));
  net::HttpResponse resp;
  resp.status = 200;
  resp.headers.emplace_back("content-type", "text/plain");
  resp.body = frame_bodies(records, "prediction");
  return resp;
}

ServiceRouter::StatsSnapshot ServiceRouter::collect_stats() const {
  // Each stats() call copies its whole struct under the owning lock, so
  // both endpoints render from one internally consistent picture.
  StatsSnapshot snap;
  snap.service = service_.stats();
  if (server_stats_) {
    snap.server = server_stats_();
    snap.have_server = true;
  }
  return snap;
}

net::HttpResponse ServiceRouter::handle_stats() {
  const StatsSnapshot snap = collect_stats();
  const ServiceStats& s = snap.service;
  obs::JsonWriter w;
  w.begin_object();
  w.kv("campaigns_submitted", s.campaigns_submitted);
  w.kv("predictions_computed", s.predictions_computed);
  w.kv("batch_duplicates_folded", s.batch_duplicates_folded);
  w.kv("inflight_joins", s.inflight_joins);
  w.kv("snapshot_entries_restored", s.snapshot_entries_restored);
  w.kv("snapshot_entries_skipped", s.snapshot_entries_skipped);
  w.kv("predictions_cancelled", s.predictions_cancelled);
  w.kv("explains_served", s.explains_served);
  w.begin_object("cache");
  w.kv("hits", s.cache.hits);
  w.kv("misses", s.cache.misses);
  w.kv("evictions", s.cache.evictions);
  w.kv("entries", s.cache.entries);
  w.kv("invalidations", s.cache.invalidations);
  w.kv("record_bytes", s.cache.record_bytes);
  w.kv("body_bytes", s.cache.body_bytes);
  w.end_object();
  {
    const CampaignStoreStats c = campaigns_.stats();
    w.begin_object("campaigns");
    w.kv("created", c.created);
    w.kv("replaced", c.replaced);
    w.kv("deleted", c.deleted);
    w.kv("appends", c.appends);
    w.kv("predictions", c.predictions);
    w.kv("hash_invalidations", c.hash_invalidations);
    w.kv("active", c.active);
    w.end_object();
  }
  if (snap.have_server) {
    const net::ServerStats& n = snap.server;
    w.begin_object("server");
    w.kv("connections_accepted", n.connections_accepted);
    w.kv("connections_closed", n.connections_closed);
    w.kv("open_connections", n.open_connections);
    w.kv("peak_connections", n.peak_connections);
    w.kv("requests_served", n.requests_served);
    w.kv("requests_answered_on_loop", n.requests_answered_on_loop);
    w.kv("responses_4xx", n.responses_4xx);
    w.kv("responses_5xx", n.responses_5xx);
    w.kv("connections_timed_out", n.connections_timed_out);
    w.kv("overflow_rejections", n.overflow_rejections);
    w.kv("parse_errors", n.parse_errors);
    w.kv("requests_shed", n.requests_shed);
    w.kv("timers_queued", n.timers_queued);
    w.end_object();
  }
  w.end_object();
  return json_response(w);
}

net::HttpResponse ServiceRouter::handle_metrics() {
  const StatsSnapshot snap = collect_stats();
  const ServiceStats& s = snap.service;
  obs::PrometheusWriter w;
  // Build/runtime identity as a constant-1 info gauge, the Prometheus
  // convention for exposing labels rather than a value. The label set is
  // a stable schema; the service always fits with the batched engine.
  w.gauge("estima_build_info",
          std::string("version=\"") + kBuildVersion +
              "\",engine=\"batched\",fault_injection=\"" +
              (fault::compiled_in() ? "on" : "off") + "\"",
          "Build and runtime identity; the value is always 1.",
          std::int64_t{1});
  w.counter("estima_service_campaigns_submitted_total", "",
            "Campaigns received across predict and predict_batch.",
            s.campaigns_submitted);
  w.counter("estima_service_predictions_computed_total", "",
            "Actual predict() runs (cache misses that computed).",
            s.predictions_computed);
  w.counter("estima_service_batch_duplicates_folded_total", "",
            "Same-campaign repeats folded within one batch.",
            s.batch_duplicates_folded);
  w.counter("estima_service_inflight_joins_total", "",
            "Requests that joined another thread's in-flight compute.",
            s.inflight_joins);
  w.counter("estima_service_snapshot_entries_restored_total", "",
            "Cache entries restored from snapshot files.",
            s.snapshot_entries_restored);
  w.counter("estima_service_snapshot_entries_skipped_total", "",
            "Snapshot entries dropped during restore.",
            s.snapshot_entries_skipped);
  w.counter("estima_service_predictions_cancelled_total", "",
            "Predictions abandoned at a deadline boundary.",
            s.predictions_cancelled);
  w.counter("estima_service_explains_total", "",
            "Audited /v1/explain computations served.", s.explains_served);
  w.counter("estima_cache_hits_total", "", "Result-cache hits.",
            s.cache.hits);
  w.counter("estima_cache_misses_total", "", "Result-cache misses.",
            s.cache.misses);
  w.counter("estima_cache_evictions_total", "", "Result-cache evictions.",
            s.cache.evictions);
  w.counter("estima_cache_invalidations_total", "",
            "Entries erased by point invalidation (campaign appends).",
            s.cache.invalidations);
  w.gauge("estima_cache_entries", "", "Resident result-cache entries.",
          static_cast<std::int64_t>(s.cache.entries));
  w.gauge("estima_cache_record_bytes", "",
          "Bytes of answer records kept beside cache entries by "
          "/v1/predict hits on the handler pool, copied by later hits.",
          static_cast<std::int64_t>(s.cache.record_bytes));
  w.gauge("estima_cache_body_bytes", "",
          "Bytes of request bodies kept beside cache entries, so the "
          "event loops answer a byte-equal repeat without parsing.",
          static_cast<std::int64_t>(s.cache.body_bytes));
  {
    const CampaignStoreStats c = campaigns_.stats();
    w.counter("estima_service_campaign_creates_total", "",
              "Named campaigns created via PUT.", c.created);
    w.counter("estima_service_campaign_replaces_total", "",
              "Named campaigns replaced via PUT.", c.replaced);
    w.counter("estima_service_campaign_deletes_total", "",
              "Named campaigns deleted.", c.deleted);
    w.counter("estima_service_campaign_appends_total", "",
              "Point batches appended to named campaigns.", c.appends);
    w.counter("estima_service_campaign_predictions_total", "",
              "Predictions served for named campaigns.", c.predictions);
    w.counter("estima_service_campaign_invalidations_total", "",
              "Superseded campaign hashes erased from the result cache.",
              c.hash_invalidations);
    w.gauge("estima_service_campaigns_active", "",
            "Currently resident named campaigns.",
            static_cast<std::int64_t>(c.active));
  }
  if (snap.have_server) {
    const net::ServerStats& n = snap.server;
    w.counter("estima_server_connections_accepted_total", "",
              "Connections accepted by the HTTP edge.",
              n.connections_accepted);
    w.counter("estima_server_connections_closed_total", "",
              "Connections closed by the HTTP edge.", n.connections_closed);
    w.gauge("estima_server_open_connections", "",
            "Currently open connections.",
            static_cast<std::int64_t>(n.open_connections));
    w.gauge("estima_server_peak_connections", "",
            "High-water mark of concurrently open connections.",
            static_cast<std::int64_t>(n.peak_connections));
    w.counter("estima_server_requests_served_total", "",
              "Requests answered (any status).", n.requests_served);
    w.counter("estima_server_requests_answered_on_loop_total", "",
              "Requests the event loops answered without the handler pool "
              "(cache hits).",
              n.requests_answered_on_loop);
    w.counter("estima_server_responses_4xx_total", "",
              "Responses with a 4xx status.", n.responses_4xx);
    w.counter("estima_server_responses_5xx_total", "",
              "Responses with a 5xx status.", n.responses_5xx);
    w.counter("estima_server_connections_timed_out_total", "",
              "Connections closed by the 408/idle timer.",
              n.connections_timed_out);
    w.counter("estima_server_overflow_rejections_total", "",
              "Connections answered 503 at accept (over max_connections).",
              n.overflow_rejections);
    w.counter("estima_server_parse_errors_total", "",
              "Requests rejected by the HTTP parser.", n.parse_errors);
    w.counter("estima_server_requests_shed_total", "",
              "Queued requests shed by the handler pool.", n.requests_shed);
    w.gauge("estima_server_timers_queued", "",
            "Deadlines armed in the event loops' timer sets.",
            static_cast<std::int64_t>(n.timers_queued));
  }
  if (fault::compiled_in()) {
    for (const auto& [site, st] : fault::all_site_stats()) {
      const std::string label = "site=\"" + site + "\"";
      w.counter("estima_fault_calls_total", label,
                "Armed fault-injection site evaluations.", st.calls);
      w.counter("estima_fault_fires_total", label,
                "Armed fault-injection site fires.", st.fires);
    }
  }
  if (metrics_ != nullptr) w.registry(*metrics_);
  net::HttpResponse resp;
  resp.status = 200;
  resp.headers.emplace_back("content-type",
                            "text/plain; version=0.0.4; charset=utf-8");
  resp.body = w.str();
  return resp;
}

net::HttpResponse ServiceRouter::handle_trace() {
  if (tracer_ == nullptr) {
    return text_response(503, "tracing not enabled on this server");
  }
  const std::vector<obs::SlowTrace> slow = tracer_->slow_traces();
  obs::JsonWriter w;
  w.begin_object();
  w.kv("slow_threshold_ms",
       static_cast<std::int64_t>(tracer_->config().slow_threshold_ms));
  w.kv("ring_capacity",
       static_cast<std::uint64_t>(tracer_->config().ring_capacity));
  w.begin_array("traces");
  for (const auto& t : slow) {
    w.begin_object();
    w.kv("trace_id", obs::format_trace_id(t.trace_id));
    w.kv("seq", t.seq);
    w.kv("total_ms", static_cast<double>(t.total_ns) / 1e6, 3);
    w.begin_array("spans");
    for (const auto& sp : t.spans) {
      w.begin_object();
      w.kv("name", obs::stage_name(sp.stage));
      w.kv("start_ms", static_cast<double>(sp.start_off_ns) / 1e6, 3);
      w.kv("duration_ms", static_cast<double>(sp.total_ns) / 1e6, 3);
      w.kv("count", sp.count);
      w.kv("nested", sp.nested);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return json_response(w);
}

net::HttpResponse ServiceRouter::handle_snapshot() {
  if (cfg_.snapshot_path.empty()) {
    return text_response(503, "snapshot path not configured on this server");
  }
  const SnapshotWriteReport report = service_.snapshot_to(cfg_.snapshot_path);
  char sig[24];
  std::snprintf(sig, sizeof sig, "%016" PRIx64, report.config_signature);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("path", report.path);
  w.kv("entries_written",
       static_cast<std::uint64_t>(report.entries_written));
  w.kv("config_signature", std::string(sig));
  w.end_object();
  return json_response(w);
}

}  // namespace estima::service
