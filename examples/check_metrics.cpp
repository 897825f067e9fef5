// CI smoke check for the observability surface: points at a running
// estima_serve, exercises the prediction path, then
//   * scrapes GET /v1/metrics and holds it to the Prometheus text grammar
//     (obs::validate_prometheus_text) plus the stable stage schema, the
//     per-kernel fit families and the estima_build_info gauge, whose
//     engine label must read "batched";
//   * verifies the X-Estima-Trace-Id echo and GET /v1/trace shape;
//   * POSTs /v1/explain and checks the audit JSON shape — and that the
//     audit's factor winner kernel matches the prediction actually served
//     by /v1/predict for the same campaign (provenance must describe the
//     answer, not some other fit);
//   * round-trips GET /v1/explain/{hash} against the retained audit;
//   * drives a full streaming-campaign lifecycle (PUT create -> POST
//     points append -> GET re-predict -> DELETE) and holds the
//     estima_service_campaign_* counter families to it;
//   * repeats a known campaign and holds the event loops' answer counter
//     (estima_server_requests_answered_on_loop_total) to it: a hit on the
//     handler pool keeps the rendered record and the request body (the
//     estima_cache_record_bytes and estima_cache_body_bytes gauges are
//     then above 0), and byte-equal repeats are answered on the loop,
//     each still echoing its trace id, every repeat in the same bytes; a
//     CRLF copy of the campaign, a second accepted encoding, answers the
//     same bytes;
//   * with --event-log=PATH, parses every line of the server's JSONL
//     event log as a flat JSON object with the stable key schema, and
//     asserts the campaign lifecycle's disposition lines are among them,
//     and a hit line with its trace id for each repeated campaign.
//
//   ./example_check_metrics [--port=P] [--host=H] [--requests=N]
//                           [--event-log=PATH]
//
// Exit 0 when every check passes, 1 with the first violation on stderr.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/measurement.hpp"
#include "core/prediction_io.hpp"
#include "examples/cli_flags.hpp"
#include "net/client.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "simmachine/synthetic.hpp"

namespace {

std::string csv_of(const estima::core::MeasurementSet& ms) {
  std::ostringstream os;
  estima::core::write_csv(os, ms);
  return os.str();
}

int fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "check_metrics FAILED: %s: %s\n", what,
               detail.c_str());
  return 1;
}

/// The quoted string value following `"key": "` after `from` in a
/// JsonWriter document; empty when absent (checked values are never
/// legitimately empty here).
std::string string_value_after(const std::string& body, const std::string& key,
                               std::size_t from) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = body.find(needle, from);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = body.find('"', start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

/// Structural check for one JSONL event line: a single flat object whose
/// braces/quotes balance and whose every stable schema key is present.
/// (No JSON parser in the tree; this catches truncation, interleaving and
/// unescaped metacharacters, which is what the log contract promises.)
bool valid_event_line(const std::string& line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return false;
  }
  bool in_string = false;
  bool escaped = false;
  int depth = 0;
  for (char c : line) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth < 0) return false;
  }
  if (depth != 0 || in_string || escaped) return false;
  for (const char* key :
       {"\"trace_id\":", "\"target\":", "\"status\":", "\"campaign_hash\":",
        "\"disposition\":", "\"winner_kernel\":", "\"latency_ms\":"}) {
    if (line.find(key) == std::string::npos) return false;
  }
  return true;
}

/// The value of the sample line starting with `series` followed by a
/// space; -1 when the exposition has no such line.
double sample_value(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::atof(text.c_str() + at + needle.size());
}

/// Repeats of the explain campaign that must be answered on the loop.
constexpr int kLoopHits = 3;

}  // namespace

int main(int argc, char** argv) {
  using namespace estima;
  examples::Flags flags(argc, argv);
  const int port = flags.integer("port", 8080);
  const std::string host = flags.str("host", "127.0.0.1");
  const int requests = flags.integer("requests", 8);
  const std::string event_log = flags.str("event-log", "");
  if (const auto err = flags.error()) {
    std::fprintf(stderr, "example_check_metrics: %s\n", err->c_str());
    return 2;
  }

  net::HttpClient client(host, port);
  std::string explain_csv;      // campaign re-used by the explain checks
  std::string served_kernel;    // /v1/predict's factor kernel for it
  std::vector<std::string> hit_ids;  // trace ids of the repeated campaign
  try {
    // Exercise the full pipeline (cold computes + warm cache hits) so the
    // stage histograms have samples, not just registrations.
    for (int i = 0; i < requests; ++i) {
      sim::SyntheticSpec spec;
      spec.mem_rate = 0.25 + 0.02 * (i % 3);
      spec.noise = 0.02;
      const auto ms = sim::make_synthetic(
          spec, sim::counts_up_to(16),
          ("metrics-check-" + std::to_string(i % 3)).c_str());
      const std::string id = obs::format_trace_id(0xfeed0000u + i);
      const net::HttpResponse resp =
          client.request("POST", "/v1/predict", csv_of(ms),
                         {{"content-type", "text/plain"},
                          {"x-estima-trace-id", id}});
      if (resp.status != 200) {
        return fail("/v1/predict", "status " + std::to_string(resp.status) +
                                       ": " + resp.body);
      }
      const std::string* echoed = nullptr;
      for (const auto& [k, v] : resp.headers) {
        if (k == "x-estima-trace-id") echoed = &v;
      }
      if (echoed == nullptr) {
        return fail("trace echo", "response lacks x-estima-trace-id");
      }
      if (*echoed != id) {
        return fail("trace echo", "sent " + id + " got " + *echoed);
      }
      if (i == 0) {
        explain_csv = csv_of(ms);
        std::istringstream is(resp.body);
        served_kernel =
            core::kernel_name(core::read_prediction(is).factor_fn.type);
      }
    }

    // Byte-equal repeats are answered on the event loops: once a hit on
    // the pool has kept the campaign's body (the warm-up below; with
    // enough --requests the loop above already did), repeating it raises
    // the loop's answer counter, and each hit still echoes its trace id
    // (and is logged as a hit, checked with the event log below).
    {
      const net::HttpResponse warm = client.request(
          "POST", "/v1/predict", explain_csv, {{"content-type", "text/plain"}});
      if (warm.status != 200) {
        return fail("warm-up hit", "status " + std::to_string(warm.status));
      }
      const char* const series =
          "estima_server_requests_answered_on_loop_total";
      const auto loop_answers = [&]() -> double {
        const net::HttpResponse m = client.get("/v1/metrics");
        return m.status == 200 ? sample_value(m.body, series) : -1;
      };
      const double before = loop_answers();
      if (before < 0) {
        return fail("metrics content", std::string("missing ") + series);
      }
      std::string first_hit;
      for (int i = 0; i < kLoopHits; ++i) {
        const std::string id = obs::format_trace_id(0xbeef0000u + i);
        const net::HttpResponse resp =
            client.request("POST", "/v1/predict", explain_csv,
                           {{"content-type", "text/plain"},
                            {"x-estima-trace-id", id}});
        const std::string* echoed = resp.header("x-estima-trace-id");
        if (resp.status != 200 || echoed == nullptr || *echoed != id) {
          return fail("loop hit", "status " + std::to_string(resp.status) +
                                      ", trace id " +
                                      (echoed ? *echoed : "missing") +
                                      " for " + id);
        }
        hit_ids.push_back(id);
        if (i == 0) first_hit = resp.body;
        if (resp.body != first_hit) {
          return fail("loop hit", "repeat " + std::to_string(i) +
                                      " answered different bytes");
        }
      }
      const double after = loop_answers();
      if (after - before < kLoopHits) {
        return fail("loop hits",
                    std::string(series) + " rose by " +
                        std::to_string(after - before) + ", expected " +
                        std::to_string(kLoopHits));
      }
      const net::HttpResponse m = client.get("/v1/metrics");
      for (const char* gauge :
           {"estima_cache_record_bytes", "estima_cache_body_bytes"}) {
        const double kept =
            m.status == 200 ? sample_value(m.body, gauge) : -1;
        if (kept <= 0) {
          return fail("kept records",
                      std::string(gauge) + " reads " + std::to_string(kept) +
                          " after loop hits (missing is -1)");
        }
      }
      // The same campaign in another accepted encoding (CRLF line ends)
      // is not the kept body's bytes, so the pool parses and hashes it,
      // and must still answer the canonical bytes.
      std::string crlf;
      for (const char c : explain_csv) {
        if (c == '\n') crlf += '\r';
        crlf += c;
      }
      const net::HttpResponse other = client.request(
          "POST", "/v1/predict", crlf, {{"content-type", "text/plain"}});
      if (other.status != 200 || other.body != first_hit) {
        return fail("encodings", "a CRLF copy of a warm campaign answered " +
                                     std::to_string(other.status) +
                                     (other.body == first_hit
                                          ? ""
                                          : " with different bytes"));
      }
    }

    // Provenance: the explain audit must describe the served answer.
    const net::HttpResponse explain =
        client.request("POST", "/v1/explain", explain_csv,
                       {{"content-type", "text/plain"}});
    if (explain.status != 200) {
      return fail("/v1/explain", "status " + std::to_string(explain.status) +
                                     ": " + explain.body);
    }
    for (const char* key :
         {"\"campaign_hash\": \"", "\"prediction\": {", "\"audit\": {",
          "\"categories\": [", "\"factor\": {", "\"attempts\": [",
          "\"candidates\": [", "\"winner\": {", "\"scorecard\": ["}) {
      if (explain.body.find(key) == std::string::npos) {
        return fail("explain shape", std::string("missing ") + key);
      }
    }
    const std::string pred_kernel =
        string_value_after(explain.body, "factor_kernel", 0);
    const std::size_t factor_at = explain.body.find("\"factor\": {");
    const std::size_t winner_at = explain.body.find("\"winner\": {", factor_at);
    const std::string audit_kernel =
        winner_at == std::string::npos
            ? ""
            : string_value_after(explain.body, "kernel", winner_at);
    if (audit_kernel.empty() || audit_kernel != pred_kernel ||
        audit_kernel != served_kernel) {
      return fail("explain winner",
                  "audit factor winner '" + audit_kernel +
                      "' vs explain prediction '" + pred_kernel +
                      "' vs served prediction '" + served_kernel + "'");
    }
    const std::string hash = string_value_after(explain.body, "campaign_hash", 0);
    if (hash.empty()) return fail("explain hash", "no campaign_hash");
    const net::HttpResponse retained = client.get("/v1/explain/" + hash);
    if (retained.status != 200) {
      return fail("/v1/explain/{hash}",
                  "status " + std::to_string(retained.status));
    }
    if (retained.body != explain.body) {
      return fail("/v1/explain/{hash}",
                  "retained audit differs from the POSTed one");
    }

    // Streaming-campaign lifecycle: create from the first 10 points,
    // append the last 2, re-predict, delete — exactly what the campaign
    // counter families and the event-log dispositions must record.
    {
      sim::SyntheticSpec spec;
      spec.mem_rate = 0.31;
      spec.noise = 0.02;
      const auto full = sim::make_synthetic(
          spec, sim::counts_up_to(12), "metrics-campaign");
      auto tail = full;
      tail.cores.assign(full.cores.begin() + 10, full.cores.end());
      tail.time_s.assign(full.time_s.begin() + 10, full.time_s.end());
      for (std::size_t i = 0; i < tail.categories.size(); ++i) {
        tail.categories[i].values.assign(
            full.categories[i].values.begin() + 10,
            full.categories[i].values.end());
      }

      // A failed earlier attempt of this check (the CI step retries until
      // the server is up) may have left the campaign behind; a fresh PUT
      // after DELETE keeps the drive idempotent.
      (void)client.request("DELETE", "/v1/campaigns/ci-drive", "", {});
      const net::HttpResponse put =
          client.request("PUT", "/v1/campaigns/ci-drive",
                         csv_of(full.truncated(10)),
                         {{"content-type", "text/plain"}});
      if (put.status != 201) {
        return fail("campaign PUT", "status " + std::to_string(put.status) +
                                        ": " + put.body);
      }
      const net::HttpResponse appended =
          client.request("POST", "/v1/campaigns/ci-drive/points",
                         csv_of(tail), {{"content-type", "text/plain"}});
      if (appended.status != 200) {
        return fail("campaign POST points",
                    "status " + std::to_string(appended.status) + ": " +
                        appended.body);
      }
      for (const char* key : {"\"version\": 2", "\"points\": 12",
                              "\"appended\": 2", "\"memo_hits\"",
                              "\"memo_bytes\""}) {
        if (appended.body.find(key) == std::string::npos) {
          return fail("campaign append report",
                      std::string("missing ") + key);
        }
      }
      const net::HttpResponse got = client.get("/v1/campaigns/ci-drive");
      if (got.status != 200) {
        return fail("campaign GET", "status " + std::to_string(got.status));
      }
      const net::HttpResponse del =
          client.request("DELETE", "/v1/campaigns/ci-drive", "", {});
      if (del.status != 200) {
        return fail("campaign DELETE",
                    "status " + std::to_string(del.status));
      }
      const net::HttpResponse gone = client.get("/v1/campaigns/ci-drive");
      if (gone.status != 404) {
        return fail("campaign GET after DELETE",
                    "expected 404, got " + std::to_string(gone.status));
      }
    }

    const net::HttpResponse metrics = client.get("/v1/metrics");
    if (metrics.status != 200) {
      return fail("/v1/metrics",
                  "status " + std::to_string(metrics.status));
    }
    if (const auto err = obs::validate_prometheus_text(metrics.body)) {
      return fail("prometheus grammar", *err);
    }
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      const std::string needle =
          "estima_stage_duration_seconds_count{stage=\"" +
          std::string(obs::stage_name(static_cast<obs::Stage>(i))) + "\"}";
      if (metrics.body.find(needle) == std::string::npos) {
        return fail("stage schema", "missing series " + needle);
      }
    }
    // Every response the pool sent went through wire assembly, so the
    // appended edge.encode stage must carry samples, not just a series.
    {
      const std::string needle =
          "estima_stage_duration_seconds_count{stage=\"edge.encode\"} ";
      const std::size_t at = metrics.body.find(needle);
      if (at == std::string::npos ||
          std::atof(metrics.body.c_str() + at + needle.size()) < 1) {
        return fail("stage schema", "edge.encode recorded no samples");
      }
    }
    for (const char* family :
         {"estima_request_duration_seconds_count",
          "estima_service_campaigns_submitted_total",
          "estima_cache_hits_total", "estima_server_requests_served_total",
          "estima_build_info{", "estima_service_explains_total",
          "estima_fit_attempts_total{", "estima_fit_candidates_total{",
          "estima_fit_seconds_count{"}) {
      if (metrics.body.find(family) == std::string::npos) {
        return fail("metrics content", std::string("missing ") + family);
      }
    }
    // estima_build_info's labels are a stable schema, and every prediction
    // the daemon serves runs on the batched fit engine.
    {
      const std::size_t at = metrics.body.find("estima_build_info{");
      const std::string sample =
          metrics.body.substr(at, metrics.body.find('\n', at) - at);
      if (sample.find("engine=\"batched\"") == std::string::npos) {
        return fail("build info", "engine label is not batched: " + sample);
      }
    }
    // The lifecycle above drove each campaign counter family (values are
    // not pinned — the CI step retries this whole binary until the server
    // is up, so an earlier partial attempt may have counted too); the
    // final delete does pin the active gauge back to 0.
    for (const char* needle :
         {"estima_service_campaign_creates_total",
          "estima_service_campaign_appends_total",
          "estima_service_campaign_deletes_total",
          "estima_service_campaign_invalidations_total",
          "estima_service_campaign_predictions_total",
          "estima_service_campaigns_active 0",
          "estima_cache_invalidations_total"}) {
      if (metrics.body.find(needle) == std::string::npos) {
        return fail("campaign metrics", std::string("missing ") + needle);
      }
    }
    // The served winner must have been counted by the per-kernel candidate
    // family (winners are candidate outcomes, never attempt outcomes).
    const std::string winner_series =
        "estima_fit_candidates_total{kernel=\"" + served_kernel +
        "\",outcome=\"winner\"}";
    if (metrics.body.find(winner_series) == std::string::npos) {
      return fail("fit metrics", "missing series " + winner_series);
    }

    const net::HttpResponse trace = client.get("/v1/trace");
    if (trace.status != 200) {
      return fail("/v1/trace", "status " + std::to_string(trace.status));
    }
    if (trace.body.find("\"traces\"") == std::string::npos) {
      return fail("/v1/trace", "body lacks a traces array");
    }
  } catch (const std::exception& e) {
    return fail("transport", e.what());
  }

  std::size_t event_lines = 0;
  if (!event_log.empty()) {
    // The log's writer thread flushes on an interval; give it a moment to
    // drain the requests above before holding the file to the schema. The
    // campaign lifecycle must be in there too: the append's re-prediction
    // is a miss by construction (its hash did not exist before), and the
    // GET right after it is a hit (the append warmed the cache).
    bool append_miss = false;
    bool get_hit = false;
    std::size_t hits_logged = 0;
    for (int attempt = 0;
         attempt < 30 && (event_lines == 0 || !append_miss || !get_hit ||
                          hits_logged < hit_ids.size());
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::ifstream in(event_log);
      if (!in) continue;
      std::string line;
      std::size_t seen = 0;
      hits_logged = 0;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (!valid_event_line(line)) {
          return fail("event log", "bad JSONL line: " + line);
        }
        if (line.find("\"target\":\"/v1/campaigns/ci-drive/points\"") !=
                std::string::npos &&
            line.find("\"disposition\":\"miss\"") != std::string::npos) {
          append_miss = true;
        }
        if (line.find("\"target\":\"/v1/campaigns/ci-drive\"") !=
                std::string::npos &&
            line.find("\"disposition\":\"hit\"") != std::string::npos) {
          get_hit = true;
        }
        for (const std::string& id : hit_ids) {
          if (line.find("\"trace_id\":\"" + id + "\"") != std::string::npos &&
              line.find("\"disposition\":\"hit\"") != std::string::npos) {
            ++hits_logged;
          }
        }
        ++seen;
      }
      event_lines = seen;
    }
    if (event_lines == 0) {
      return fail("event log", "no lines appeared in " + event_log);
    }
    if (!append_miss) {
      return fail("event log",
                  "no miss-disposition line for the campaign append");
    }
    if (!get_hit) {
      return fail("event log",
                  "no hit-disposition line for the campaign GET");
    }
    if (hits_logged < hit_ids.size()) {
      return fail("event log",
                  std::to_string(hit_ids.size() - hits_logged) +
                      " repeated /v1/predict hit(s) without a hit line "
                      "carrying their trace id");
    }
  }

  std::printf("check_metrics OK: grammar valid, %zu stage histograms, "
              "trace echo verified, explain audit verified%s\n",
              obs::kStageCount,
              event_log.empty()
                  ? ""
                  : (", " + std::to_string(event_lines) + " event line(s)")
                        .c_str());
  return 0;
}
