// Traced mode, in-process half: the plan's inputs replayed through each
// layer's public functions, with a span around every call. The spans are
// recorded here, around the calls, not inside the program.
//
// Three replays, each on this workload's own campaigns:
//   hit path     net::RequestParser::feed -> ServiceRouter::handle on a
//                resident key -> net::serialize_response, then the router's
//                own steps one by one: core::read_csv,
//                PredictionService::hash_of, predict_one (cache hit),
//                core::write_prediction.
//   fit path     core::predict serial and on a 2-thread pool; on cold-fit
//                also the router on a cache miss.
//   append path  CampaignStore::append + CampaignStore::predict one point
//                at a time; on stream-append also the router's
//                POST /v1/campaigns/{name}/points.
// The router replay that matches the workload's timed request kind is
// its "primary" one: it gives service.router_us, the net.* parse/encode
// times and service.unattributed_pct (router time its children's
// medians do not cover). A campaign state the predictor refuses (see
// README.md, "Refusals") is skipped from the point it is refused.
#include <map>
#include <sstream>

#include "core/prediction_io.hpp"
#include "common.hpp"
#include "net/http_parser.hpp"
#include "parallel/thread_pool.hpp"
#include "service/campaign_store.hpp"
#include "service/prediction_service.hpp"
#include "service/routes.hpp"

namespace perfbench {

namespace core = estima::core;
namespace net = estima::net;
namespace service = estima::service;

namespace {

class Recorder {
 public:
  Recorder(std::vector<Span>& spans, Clock::time_point origin)
      : spans_(spans), origin_(origin) {}

  std::size_t begin(std::uint64_t request, const char* name,
                    std::int64_t parent) {
    spans_.push_back(Span{request, name, parent, now(), 0});
    return spans_.size() - 1;
  }
  void end(std::size_t i) {
    Span& s = spans_[i];
    s.end_ns = now();
    us_[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  template <typename F>
  auto timed(std::uint64_t request, const char* name, std::int64_t parent,
             F&& f) {
    const std::size_t i = begin(request, name, parent);
    auto result = f();
    end(i);
    return result;
  }
  double median_us(const std::string& name) const {
    const auto it = us_.find(name);
    return it == us_.end() || it->second.empty() ? 0 : median(it->second);
  }
  /// Closes the spans from index `from` on that a refused call (a throw)
  /// left open, without counting them in the medians.
  void close_open(std::size_t from) {
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].end_ns == 0) spans_[i].end_ns = now();
    }
  }
  std::size_t mark() const { return spans_.size(); }
  double sum_us(const std::string& name) const {
    double s = 0;
    const auto it = us_.find(name);
    if (it != us_.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::vector<Span>& spans_;
  Clock::time_point origin_;
  std::map<std::string, std::vector<double>> us_;
};

std::string raw_request(const std::string& method, const std::string& target,
                        const std::string& body) {
  return net::serialize_request(method, target, body, {{"Host", "127.0.0.1"}});
}

/// One request through the edge codec and the router, as the daemon's
/// loop would run it minus the socket.
void replay_request(Recorder& rec, std::uint64_t id,
                    service::ServiceRouter& router, const std::string& raw) {
  const auto root = static_cast<std::int64_t>(
      rec.begin(id, "replay.request", -1));
  net::RequestParser parser;
  rec.timed(id, "net.request_parse", root, [&] {
    parser.feed(raw.data(), raw.size());
    return 0;
  });
  if (parser.state() != net::RequestParser::State::kComplete) {
    throw std::runtime_error("replayed request did not parse");
  }
  const net::HttpResponse resp = rec.timed(
      id, "service.router", root, [&] { return router.handle(parser.request()); });
  if (resp.status == 400) throw std::invalid_argument(resp.body);  // refusal
  if (resp.status / 100 != 2) {
    throw std::runtime_error("replayed request answered " +
                             std::to_string(resp.status) + ": " + resp.body);
  }
  rec.timed(id, "net.response_encode", root,
            [&] { return net::serialize_response(resp, true).size(); });
  rec.end(static_cast<std::size_t>(root));
}

/// Evenly spaced picks from [0, n).
std::vector<std::size_t> spread_picks(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) out.push_back(i * n / k);
  return out;
}

}  // namespace

double replay_layers(const Plan& plan, Clock::time_point origin,
                     std::vector<Span>& spans, std::vector<Metric>& out) {
  const Workload w = plan.workload;
  Recorder rec(spans, origin);
  std::uint64_t id = 1ull << 62;  // replay ids never collide with the load's
  estima::parallel::ThreadPool pool(kPredictionThreads);
  service::ServiceConfig scfg;
  scfg.prediction = daemon_prediction_config();
  const auto csv_body = [&](std::size_t c) {
    return csv_of(plan.campaigns[c].ms);
  };

  // Hit path.
  {
    service::PredictionService svc(scfg, &pool);
    service::ServiceRouter router(svc);
    const auto picks = spread_picks(plan.campaigns.size(), 48);
    std::vector<std::string> bodies, raws;
    for (std::size_t c : picks) {
      const std::string body = csv_body(c);
      std::istringstream is(body);
      try {
        svc.predict_one(core::read_csv(is));  // make the key resident
      } catch (const std::invalid_argument&) {
        continue;
      }
      bodies.push_back(body);
      raws.push_back(raw_request("POST", "/v1/predict", body));
    }
    const std::size_t iterations = w == Workload::kWarmRepeat ? 1200 : 300;
    for (std::size_t i = 0; i < iterations; ++i, ++id) {
      const std::size_t k = i % bodies.size();
      if (w == Workload::kWarmRepeat) replay_request(rec, id, router, raws[k]);
      const auto root =
          static_cast<std::int64_t>(rec.begin(id, "router.steps", -1));
      const core::MeasurementSet ms =
          rec.timed(id, "service.parse", root, [&] {
            std::istringstream is(bodies[k]);
            return core::read_csv(is);
          });
      rec.timed(id, "service.hash", root, [&] { return svc.hash_of(ms); });
      const core::Prediction pred = rec.timed(
          id, "service.cache_hit", root, [&] { return svc.predict_one(ms); });
      rec.timed(id, "core.serialize", root, [&] {
        std::ostringstream os;
        core::write_prediction(os, pred);
        return os.str().size();
      });
      rec.end(static_cast<std::size_t>(root));
    }
    if (svc.stats().predictions_computed != bodies.size()) {
      throw std::runtime_error("hit-path replay computed a prediction");
    }
  }

  // Fit path.
  double fits = 0, dups = 0;
  std::size_t fit_samples = 0;
  {
    service::PredictionService svc(scfg, &pool);
    service::ServiceRouter router(svc);
    const core::PredictionConfig cfg = daemon_prediction_config();
    const auto picks =
        spread_picks(plan.campaigns.size(), w == Workload::kColdFit ? 16 : 6);
    for (std::size_t c : picks) {
      const core::MeasurementSet& ms = plan.campaigns[c].ms;
      const std::size_t mark = rec.mark();
      try {
        if (w == Workload::kColdFit) {
          replay_request(rec, id, router,
                         raw_request("POST", "/v1/predict", csv_body(c)));
        }
        rec.timed(id, "core.predict_serial", -1,
                  [&] { return core::predict(ms, cfg); });
        const core::Prediction pred =
            rec.timed(id, "core.predict", -1,
                      [&] { return core::predict(ms, cfg, &pool); });
        fits += static_cast<double>(pred.factor_stats.fits_executed);
        dups +=
            static_cast<double>(pred.factor_stats.duplicate_fits_eliminated);
        for (const auto& cat : pred.categories) {
          fits += static_cast<double>(cat.extrapolation.fits_executed);
          dups += static_cast<double>(
              cat.extrapolation.duplicate_fits_eliminated);
        }
        ++fit_samples;
      } catch (const std::invalid_argument&) {
        rec.close_open(mark);
      }
      ++id;
    }
  }

  // Append path.
  double memo_hits = 0, memo_misses = 0, invalidations = 0;
  {
    service::PredictionService svc(scfg, &pool);
    service::CampaignStore store(svc);
    service::PredictionService router_svc(scfg, &pool);
    service::ServiceRouter router(router_svc);
    for (std::size_t c : spread_picks(plan.campaigns.size(), 8)) {
      const Campaign& cam = plan.campaigns[c];
      const std::size_t n = cam.ms.num_points();
      // Streamed campaigns replay their own appends; the others append
      // their last points one at a time onto a six-point-or-longer prefix.
      const std::size_t start =
          w == Workload::kStreamAppend
              ? cam.start_points
              : n - std::min<std::size_t>(kAppendsPerCampaign, n - 6);
      const std::string target = "/v1/campaigns/" + cam.name;
      const std::size_t mark = rec.mark();
      try {
        store.create(cam.name, cam.ms.truncated(start));
        store.predict(cam.name);
        if (w == Workload::kStreamAppend) {
          const auto put = router.handle(net::HttpRequest{
              "PUT", target, 1, {}, csv_of(cam.ms.truncated(start))});
          const auto get =
              router.handle(net::HttpRequest{"GET", target, 1, {}, ""});
          if (put.status / 100 != 2 || get.status != 200) {
            throw std::runtime_error("append replay set-up failed");
          }
        }
        for (std::size_t at = start; at < n; ++at, ++id) {
          const std::string delta = csv_of(slice(cam.ms, at, at + 1));
          if (w == Workload::kStreamAppend) {
            replay_request(rec, id, router,
                           raw_request("POST", target + "/points", delta));
          }
          const auto root =
              static_cast<std::int64_t>(rec.begin(id, "router.steps", -1));
          const core::MeasurementSet ms =
              rec.timed(id, "service.parse_delta", root, [&] {
                std::istringstream is(delta);
                return core::read_csv(is);
              });
          const service::CampaignInfo before =
              rec.timed(id, "service.append", root,
                        [&] { return store.append(cam.name, ms); });
          service::CampaignInfo after;
          rec.timed(id, "service.campaign_predict", root, [&] {
            return store.predict(cam.name, nullptr, nullptr, nullptr, &after);
          });
          rec.end(static_cast<std::size_t>(root));
          memo_hits += static_cast<double>(after.memo.hits - before.memo.hits);
          memo_misses +=
              static_cast<double>(after.memo.misses - before.memo.misses);
        }
      } catch (const std::invalid_argument&) {
        rec.close_open(mark);
      }
    }
    invalidations = static_cast<double>(svc.stats().cache.invalidations);
  }

  const double router = rec.median_us("service.router");
  const double parse = rec.median_us(
      w == Workload::kStreamAppend ? "service.parse_delta" : "service.parse");
  double children = 0;
  switch (w) {
    case Workload::kWarmRepeat:
      children = parse + rec.median_us("service.hash") +
                 rec.median_us("service.cache_hit") +
                 rec.median_us("core.serialize");
      break;
    case Workload::kColdFit:
      children = parse + rec.median_us("service.hash") +
                 rec.median_us("core.predict") +
                 rec.median_us("core.serialize");
      break;
    case Workload::kStreamAppend:
      children = parse + rec.median_us("service.append") +
                 rec.median_us("service.campaign_predict");
      break;
  }
  const double n_fit = static_cast<double>(std::max<std::size_t>(fit_samples, 1));
  out.push_back({"net.request_parse_us", rec.median_us("net.request_parse"), "us"});
  out.push_back({"net.response_encode_us", rec.median_us("net.response_encode"),
                 "us"});
  out.push_back({"service.router_us", router, "us"});
  out.push_back({"service.parse_us", parse, "us"});
  out.push_back({"service.hash_us", rec.median_us("service.hash"), "us"});
  out.push_back({"service.cache_hit_us", rec.median_us("service.cache_hit"), "us"});
  out.push_back({"service.unattributed_pct",
                 router > 0 ? 100.0 * (router - children) / router : 0, "%"});
  out.push_back({"service.append_us", rec.median_us("service.append"), "us"});
  out.push_back({"service.campaign_predict_ms",
                 rec.median_us("service.campaign_predict") / 1e3, "ms"});
  out.push_back({"service.invalidations", invalidations, "count"});
  out.push_back({"core.serialize_us", rec.median_us("core.serialize"), "us"});
  out.push_back({"core.predict_ms", rec.median_us("core.predict") / 1e3, "ms"});
  out.push_back({"core.fits_executed", fits / n_fit, "count"});
  out.push_back({"core.duplicate_fits_eliminated", dups / n_fit, "count"});
  out.push_back({"core.memo_hit_ratio",
                 memo_hits + memo_misses > 0
                     ? memo_hits / (memo_hits + memo_misses)
                     : 0,
                 "ratio"});
  out.push_back({"parallel.pool_speedup",
                 rec.sum_us("core.predict") > 0
                     ? rec.sum_us("core.predict_serial") /
                           rec.sum_us("core.predict")
                     : 0,
                 "x"});
  return router;
}

}  // namespace perfbench
