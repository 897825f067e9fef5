// Load generator for the ESTIMA serving daemon.
//
//   perfbench_load --workload=<warm-repeat|cold-fit|stream-append>
//                  --seed=N --seconds=S --trace=0|1
//                  --daemon=PATH --out=DIR
//   perfbench_load --selftest
//
// Generates every request from the seed first, then, for each of
// kRounds rounds, spawns the unmodified daemon, fills it (set-up), and
// drives a fixed request count through two closed-loop keep-alive
// connections (measured phase). Every answer is checked. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"};
// the line before it holds host-noise diagnostics. With --trace=1 the
// metrics are the per-layer ones (see README.md), and spans are written
// to DIR/spans-<workload>-<seed>.jsonl.
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/prediction_io.hpp"
#include "daemon.hpp"
#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "simmachine/presets.hpp"

namespace perfbench {

namespace core = estima::core;

core::PredictionConfig daemon_prediction_config() {
  core::PredictionConfig cfg;
  cfg.target_cores = core::cores_up_to(kTargetCores);
  return cfg;
}

namespace {

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// /proc/stat ticks the whole host accrues per second of wall time.
double host_ticks_per_second() {
  return static_cast<double>(::sysconf(_SC_CLK_TCK)) *
         static_cast<double>(std::thread::hardware_concurrency());
}

struct Sample {
  const Request* req = nullptr;
  std::string body;
};

/// What one client connection saw over one request list.
struct ClientLog {
  Outcomes out;
  std::vector<std::int64_t> done_ns;  ///< measured: every completion
  /// measured, timed kind only: (completion, round trip in ms)
  std::vector<std::pair<std::int64_t, double>> timed;
  std::vector<Span> spans;
  std::vector<Sample> samples;
  std::map<std::size_t, std::string> answers;  ///< set-up: campaign -> body
  /// campaign -> cumulative (memo_hits, memo_misses) from its last append
  std::map<std::size_t, std::pair<double, double>> memo;
  /// 400s the library's own predict() is expected to give for the same
  /// campaign state; checked after the run (verify_refusals).
  std::vector<Sample> refusals;
  std::uint64_t appends = 0;
  /// Appends to a campaign whose previous state was refused, so had no
  /// cached answer for the append to invalidate.
  std::uint64_t appends_after_refusal = 0;
  std::vector<std::string> errors;
};

struct StartGate {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
};

void note(ClientLog& log, const std::string& what) {
  if (log.errors.size() < 5) log.errors.push_back(what);
}

/// One closed loop: send, wait for the whole reply, check it, repeat.
void drive(int port, const Plan& plan, const std::vector<Request>& list,
           const std::map<std::size_t, std::string>* setup_answers,
           std::map<std::size_t, bool>& refused_state, bool measured,
           bool trace, std::uint64_t request_base, Clock::time_point origin,
           StartGate* gate, ClientLog& log) {
  Connection conn(port);
  if (measured) {
    log.done_ns.reserve(list.size());
    log.timed.reserve(list.size());
  }
  if (trace) log.spans.reserve(list.size());
  if (gate != nullptr) {
    gate->ready.fetch_add(1);
    while (!gate->go.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  std::string body;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Request& q = list[i];
    const Clock::time_point t0 = Clock::now();
    const int status = conn.exchange(plan.raws[q.raw], &body);
    const Clock::time_point t1 = Clock::now();
    if (measured) {
      log.done_ns.push_back(ns_since(origin, t1));
      if (q.kind == plan.timed_kind) {
        log.timed.emplace_back(
            log.done_ns.back(),
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    }
    if (trace) {
      log.spans.push_back(Span{request_base + i, "client.request", -1,
                               ns_since(origin, t0), ns_since(origin, t1)});
    }
    const std::string& cname = plan.campaigns[q.campaign].name;
    if (status < 0) {
      ++log.out.transport_error;
      note(log, "transport error on " + cname);
      continue;
    }
    // The predictor refuses a few noisy campaign states with a 400 (see
    // README.md, "Refusals"); that is a correct answer only if the library
    // gives the same refusal in-process, which verify_refusals checks.
    const bool refusal = status == 400 && q.kind != Kind::kPut;
    if (status / 100 != 2 && !refusal) {
      ++log.out.http_error;
      note(log, "HTTP " + std::to_string(status) + " on " + cname + ": " +
                    body.substr(0, 120));
      continue;
    }
    if (q.kind == Kind::kAppend) {
      ++log.appends;
      if (refused_state[q.campaign]) ++log.appends_after_refusal;
    }
    if (q.kind != Kind::kPut) refused_state[q.campaign] = refusal;
    if (refusal) {
      ++log.out.ok;
      log.refusals.push_back(Sample{&q, body});
      continue;
    }
    if (q.check == Check::kSameAsSetup) {
      const auto it = setup_answers->find(q.campaign);
      if (it == setup_answers->end() || it->second != body) {
        ++log.out.wrong_answer;
        note(log, "warm answer differs from set-up answer for " + cname);
        continue;
      }
    }
    ++log.out.ok;
    if (q.check == Check::kSample) log.samples.push_back(Sample{&q, body});
    if (!measured && q.kind == Kind::kPredict) log.answers[q.campaign] = body;
    if (q.kind == Kind::kAppend) {
      log.memo[q.campaign] = {json_number(body, "memo_hits"),
                              json_number(body, "memo_misses")};
    }
  }
}

/// Windows hold at least this many timed requests.
constexpr std::size_t kWindowSamples = 100;
constexpr std::size_t kMaxWindowsPerRound = 8;
/// A window or set-up is clean when the host lost at most this share of
/// its CPU time to steal during it (see the aggregation in main_impl).
constexpr double kMaxStealShare = 0.02;

struct RoundResult {
  double setup_s = 0, setup_steal_share = 0, rss_mb = 0;
  std::vector<WindowStats> windows;
  std::uint64_t requests = 0, appends = 0;
  HostTicks ticks;
  // /v1/stats deltas over the measured phase
  double hits = 0, misses = 0, computed = 0, invalidations = 0, shed = 0;
  double memo_hits = 0, memo_misses = 0;
  std::uint64_t refused = 0, appends_after_refusal = 0;  ///< measured phase
  std::string metrics_text;  ///< /v1/metrics at the end (traced mode)
  bool traced = false;
  bool clean_exit = false;  ///< drained and exited 0 on SIGTERM
  std::vector<ClientLog> setup, measured;
};

double stat_or_fail(const std::string& json, const std::string& key) {
  const double v = json_number(json, key);
  if (v < 0) throw std::runtime_error("/v1/stats lacks \"" + key + "\"");
  return v;
}

RoundResult run_round(const Plan& plan, const Round& round, int index,
                      const std::string& exe, const std::string& log_path,
                      bool trace_mode, Clock::time_point origin) {
  RoundResult r;
  r.traced = trace_mode && index % 2 == 0;
  const Clock::time_point spawn = Clock::now();
  const HostTicks spawn_ticks = read_host_ticks();
  Daemon daemon(exe, log_path);

  r.setup.resize(kClients);
  // Per client: campaign -> whether its current state was refused. Each
  // client serves the same campaigns in set-up and measured phase.
  std::vector<std::map<std::size_t, bool>> refused_state(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        drive(daemon.port(), plan, round.setup[c], nullptr, refused_state[c],
              false, false, 0, origin, nullptr, r.setup[c]);
      });
    }
    for (auto& t : threads) t.join();
  }
  r.setup_s = seconds_between(spawn, Clock::now());
  r.setup_steal_share =
      static_cast<double>(read_host_ticks().steal - spawn_ticks.steal) /
      (r.setup_s * host_ticks_per_second());
  std::map<std::size_t, std::string> answers;
  for (const ClientLog& l : r.setup) {
    answers.insert(l.answers.begin(), l.answers.end());
  }

  std::string stats0, stats1;
  if (http_get(daemon.port(), "/v1/stats", &stats0) != 200) {
    throw std::runtime_error("GET /v1/stats failed");
  }
  const HostTicks ticks0 = read_host_ticks();

  // Host steal and daemon CPU, sampled through the measured phase so
  // each window gets its own share of both.
  struct ProcSample {
    std::int64_t ns;
    double steal_ticks, cpu_s;
  };
  const auto sample = [&] {
    const HostTicks t = read_host_ticks();
    return ProcSample{ns_since(origin, Clock::now()),
                      static_cast<double>(t.steal), daemon.cpu_seconds()};
  };
  std::vector<ProcSample> samples = {sample()};
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      samples.push_back(sample());
    }
  });

  r.measured.resize(kClients);
  StartGate gate;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::uint64_t base =
          (static_cast<std::uint64_t>(index) * kClients + c) << 32;
      drive(daemon.port(), plan, round.measured[c], &answers,
            refused_state[c], true, r.traced, base, origin, &gate,
            r.measured[c]);
    });
  }
  while (gate.ready.load() < kClients) std::this_thread::yield();
  const Clock::time_point t0 = Clock::now();
  gate.go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  sampling.store(false);
  sampler.join();
  samples.push_back(sample());
  std::vector<std::int64_t> done;
  std::vector<std::pair<std::int64_t, double>> timed;
  for (const ClientLog& l : r.measured) {
    done.insert(done.end(), l.done_ns.begin(), l.done_ns.end());
    timed.insert(timed.end(), l.timed.begin(), l.timed.end());
  }
  // Windows of at least kWindowSamples timed requests each.
  const std::size_t k = std::min<std::size_t>(
      kMaxWindowsPerRound, std::max<std::size_t>(timed.size() / kWindowSamples, 1));
  r.windows = window_stats(ns_since(origin, t0), done, timed, k);
  const auto at = [&](std::int64_t ns) {
    // The last sample taken at or before `ns` (the first one if none).
    std::size_t i = 0;
    while (i + 1 < samples.size() && samples[i + 1].ns <= ns) ++i;
    return samples[i];
  };
  const double ticks_per_s = host_ticks_per_second();
  for (WindowStats& w : r.windows) {
    const ProcSample a = at(w.begin_ns), b = at(w.end_ns);
    const double span_s = static_cast<double>(b.ns - a.ns) / 1e9;
    w.steal_share =
        span_s > 0 ? (b.steal_ticks - a.steal_ticks) / (span_s * ticks_per_s)
                   : 0;
    w.cpu_s = b.cpu_s - a.cpu_s;
  }

  const HostTicks ticks1 = read_host_ticks();
  r.ticks.iowait = ticks1.iowait - ticks0.iowait;
  r.ticks.steal = ticks1.steal - ticks0.steal;
  if (http_get(daemon.port(), "/v1/stats", &stats1) != 200) {
    throw std::runtime_error("GET /v1/stats failed");
  }
  if (trace_mode &&
      http_get(daemon.port(), "/v1/metrics", &r.metrics_text) != 200) {
    throw std::runtime_error("GET /v1/metrics failed");
  }
  r.rss_mb = daemon.peak_rss_mb();
  r.clean_exit = daemon.stop();

  const auto delta = [&](const char* key) {
    return stat_or_fail(stats1, key) - stat_or_fail(stats0, key);
  };
  r.hits = delta("hits");
  r.misses = delta("misses");
  r.computed = delta("predictions_computed");
  r.invalidations = delta("invalidations");
  r.shed = delta("requests_shed");
  for (int c = 0; c < kClients; ++c) {
    r.requests += round.measured[c].size();
    r.appends += r.measured[c].appends;
    r.appends_after_refusal += r.measured[c].appends_after_refusal;
    r.refused += r.measured[c].refusals.size();
    for (const auto& m : r.measured[c].memo) {
      r.memo_hits += m.second.first;
      r.memo_misses += m.second.second;
    }
  }
  return r;
}

/// The per-round counter cross-checks: each workload's measured phase
/// must have exactly the cache behaviour it was built to have.
std::string cross_check(Workload w, const RoundResult& r) {
  char buf[256] = "";
  const double n = static_cast<double>(r.requests);
  switch (w) {
    case Workload::kWarmRepeat:
      if (r.hits != n - static_cast<double>(r.refused) || r.computed != 0) {
        std::snprintf(buf, sizeof buf,
                      "warm-repeat: %.0f hits and %.0f computed for %.0f "
                      "requests, %llu refused (want a hit for every answered "
                      "request, none computed)",
                      r.hits, r.computed, n,
                      static_cast<unsigned long long>(r.refused));
      }
      break;
    case Workload::kColdFit:
      if (r.misses != n) {
        std::snprintf(buf, sizeof buf,
                      "cold-fit: %.0f misses for %.0f distinct campaigns",
                      r.misses, n);
      }
      break;
    case Workload::kStreamAppend:
      if (r.invalidations !=
              static_cast<double>(r.appends - r.appends_after_refusal) ||
          !(r.memo_hits > 0)) {
        std::snprintf(buf, sizeof buf,
                      "stream-append: %.0f invalidations for %llu appends "
                      "(%llu after a refused state), %.0f memo hits (want "
                      "one invalidation per append of a cached state, and "
                      "hits > 0)",
                      r.invalidations,
                      static_cast<unsigned long long>(r.appends),
                      static_cast<unsigned long long>(r.appends_after_refusal),
                      r.memo_hits);
      }
      break;
  }
  return buf;
}

/// Reference-suite scores keyed by campaign index, so sums run in one
/// order whatever order the answers arrived in.
struct Accuracy {
  std::map<std::size_t, double> max_err;  ///< daemon answers
  std::map<std::size_t, double> inproc_max_err;
  int verdict_matches = 0;
};

/// Compares every sampled body with an in-process predict() of the same
/// campaign state under the daemon's config; scores the reference suite.
void verify_samples(const Plan& plan, const std::vector<RoundResult>& rounds,
                    Outcomes& out, Accuracy& acc,
                    std::vector<std::string>& errors) {
  const core::PredictionConfig cfg = daemon_prediction_config();
  estima::parallel::ThreadPool pool(kPredictionThreads);
  std::map<std::pair<std::size_t, std::size_t>, std::string> expected;
  std::set<std::size_t> scored;
  for (const RoundResult& r : rounds) {
    for (const auto* logs : {&r.setup, &r.measured}) {
      for (const ClientLog& l : *logs) {
        for (const Sample& s : l.samples) {
          const Campaign& c = plan.campaigns[s.req->campaign];
          const auto key = std::make_pair(s.req->campaign, s.req->points);
          auto it = expected.find(key);
          if (it == expected.end()) {
            std::ostringstream os;
            core::write_prediction(
                os, core::predict(c.ms.truncated(s.req->points), cfg, &pool));
            it = expected.emplace(key, os.str()).first;
          }
          core::Prediction got;
          std::string got_bytes;
          try {
            std::istringstream is(s.body);
            got = core::read_prediction(is);
            std::ostringstream os;
            core::write_prediction(os, got);
            got_bytes = os.str();
          } catch (const std::exception& e) {
            got_bytes = std::string("unparseable: ") + e.what();
          }
          if (got_bytes != it->second) {
            out.reclassify_wrong();
            if (errors.size() < 5) {
              errors.push_back("answer for " + c.name +
                               " differs from in-process predict()");
            }
            continue;
          }
          if (c.reference && s.req->points == kReferencePoints &&
              scored.insert(s.req->campaign).second) {
            std::istringstream is(it->second);
            const core::Prediction mine = core::read_prediction(is);
            acc.max_err[s.req->campaign] =
                core::evaluate_prediction(got, c.truth, kReferencePoints + 1)
                    .max_pct;
            acc.inproc_max_err[s.req->campaign] =
                core::evaluate_prediction(mine, c.truth, kReferencePoints + 1)
                    .max_pct;
            if (core::evaluate_prediction(got, c.truth).scaling_verdict_match) {
              ++acc.verdict_matches;
            }
          }
        }
      }
    }
  }
}

/// Every 400 must be exactly the refusal the library's predict() gives
/// for the same campaign state; returns how many there were.
std::size_t verify_refusals(const Plan& plan,
                            const std::vector<RoundResult>& rounds,
                            Outcomes& out, std::vector<std::string>& errors) {
  const core::PredictionConfig cfg = daemon_prediction_config();
  std::size_t n = 0;
  for (const RoundResult& r : rounds) {
    for (const auto* logs : {&r.setup, &r.measured}) {
      for (const ClientLog& l : *logs) {
        for (const Sample& s : l.refusals) {
          ++n;
          const Campaign& c = plan.campaigns[s.req->campaign];
          std::string expected = "(no refusal)";
          try {
            core::predict(c.ms.truncated(s.req->points), cfg);
          } catch (const std::invalid_argument& e) {
            expected = std::string(e.what()) + "\n";
          }
          if (s.body != expected) {
            out.reclassify_wrong();
            if (errors.size() < 5) {
              errors.push_back("400 for " + c.name + " at " +
                               std::to_string(s.req->points) +
                               " points, but predict() gives " + expected);
            }
          }
        }
      }
    }
  }
  return n;
}

struct Args {
  std::string workload, daemon, out = ".";
  std::uint64_t seed = 0;
  int seconds = 10;
  int trace = 0;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    std::string key = s, val;
    const std::size_t eq = s.find('=');
    if (eq != std::string::npos) {
      key = s.substr(0, eq);
      val = s.substr(eq + 1);
    } else if (s != "--selftest" && i + 1 < argc) {
      val = argv[++i];
    }
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atoi(val.c_str());
    else if (key == "--trace") a.trace = std::atoi(val.c_str());
    else if (key == "--daemon") a.daemon = val;
    else if (key == "--out") a.out = val;
    else if (key == "--selftest") a.selftest = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", s.c_str());
      return false;
    }
  }
  return true;
}

double sum_of(const std::vector<RoundResult>& rounds,
              double RoundResult::*field) {
  double s = 0;
  for (const RoundResult& r : rounds) s += r.*field;
  return s;
}

/// The per-layer figures the daemon itself reports: /v1/stats deltas
/// over the measured phases and /v1/metrics fit families at round end.
void daemon_layer_metrics(const std::vector<RoundResult>& rounds,
                          std::vector<Metric>& out) {
  const double hits = sum_of(rounds, &RoundResult::hits);
  const double misses = sum_of(rounds, &RoundResult::misses);
  out.push_back(
      {"net.requests_shed", sum_of(rounds, &RoundResult::shed), "count"});
  out.push_back({"service.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"});
  // The kernels BENCHMARK.json names, and the LM outcomes of
  // estima_fit_attempts_total (the family also counts candidate outcomes).
  static const char* const kKernels[] = {"Rat22",  "Rat23",   "Rat33",
                                         "ExpRat", "CubicLn", "Poly25"};
  static const char* const kLmOutcomes[] = {
      "converged",     "max-iter",        "no-progress",
      "cholesky-fail", "nudge-exhausted", "no-fit"};
  double converged = 0, attempts = 0;
  for (const char* k : kKernels) {
    double seconds = 0;
    const std::string label = std::string("kernel=\"") + k + "\"";
    for (const RoundResult& r : rounds) {
      seconds += prom_sum(r.metrics_text, "estima_fit_seconds_sum", label);
      for (const char* o : kLmOutcomes) {
        const double n =
            prom_sum(r.metrics_text, "estima_fit_attempts_total", label,
                     std::string("outcome=\"") + o + "\"");
        attempts += n;
        if (std::strcmp(o, "converged") == 0) converged += n;
      }
    }
    out.push_back({std::string("core.fit_cpu_s.") + k, seconds, "s"});
  }
  out.push_back({"core.lm_converged_ratio",
                 attempts > 0 ? converged / attempts : 0, "ratio"});
}

/// One JSON object per span, with its self time.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"request\":" << s.request << ",\"name\":\"" << s.name
      << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i] << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace

int main_impl(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  const int selftest_failures = run_selftests();
  if (args.selftest || selftest_failures != 0) {
    std::fprintf(stderr, "self-tests: %d failure(s)\n", selftest_failures);
    return selftest_failures == 0 ? 0 : 1;
  }
  const auto workload = workload_from_name(args.workload);
  if (!workload || args.daemon.empty() || args.seconds < 1 ||
      (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --workload=warm-repeat|cold-fit|"
                 "stream-append --seed=N --seconds=S --trace=0|1 "
                 "--daemon=PATH [--out=DIR]\n");
    return 2;
  }
  const bool trace = args.trace == 1;

  // Inputs first: the daemon only ever sees the generated bodies.
  const Plan plan = make_plan(*workload, args.seed, args.seconds);
  const Clock::time_point origin = Clock::now();
  const std::string load_start = read_loadavg();
  const std::string log_path =
      args.out + "/daemon-" + args.workload + ".log";

  std::vector<RoundResult> rounds;
  Outcomes out;
  std::vector<std::string> errors;
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(run_round(plan, plan.rounds[i], i, args.daemon, log_path,
                               trace, origin));
    RoundResult& r = rounds.back();
    for (auto* logs : {&r.setup, &r.measured}) {
      for (const ClientLog& l : *logs) {
        out += l.out;
        for (const auto& e : l.errors) {
          if (errors.size() < 5) errors.push_back(e);
        }
      }
    }
    if (!r.clean_exit) {
      errors.push_back("round " + std::to_string(i) +
                       ": daemon did not exit 0 after SIGTERM");
    }
    const std::string violation = cross_check(*workload, r);
    if (!violation.empty()) {
      errors.push_back("round " + std::to_string(i) + ": " + violation);
    }
  }
  const std::string load_end = read_loadavg();

  Accuracy acc;
  verify_samples(plan, rounds, out, acc, errors);
  const std::size_t refused = verify_refusals(plan, rounds, out, errors);
  const std::size_t n_ref = acc.max_err.size();
  double mean_err = 0, max_err = 0, inproc_mean = 0;
  for (const auto& [c, err] : acc.max_err) {
    mean_err += err / static_cast<double>(n_ref);
    inproc_mean += acc.inproc_max_err[c] / static_cast<double>(n_ref);
    max_err = std::max(max_err, err);
  }
  // The Table 4 suite must be scored in full, and the daemon's answers
  // must reproduce the in-process (bench/table4_strong_scaling_errors)
  // Opteron 4-CPU average exactly.
  const std::size_t suite = estima::sim::presets::benchmark_workload_names().size();
  if (n_ref != suite || mean_err != inproc_mean) {
    errors.push_back("reference suite: scored " + std::to_string(n_ref) +
                     "/" + std::to_string(suite) + ", daemon mean " +
                     fmt(mean_err) + "% vs in-process " + fmt(inproc_mean) +
                     "%");
  }

  // Rates, latencies and CPU cost are pooled over the measurement windows
  // of all rounds, and setup_s is the median over the rounds' set-ups. On
  // a shared host the hypervisor steals CPU time in bursts; windows and
  // set-ups during which it stole more than kMaxStealShare measure the
  // neighbours, not the program, and are set aside (least_stolen keeps at
  // least a quarter of them). Pooling, rather than a median of per-window
  // figures, keeps the whole run's work mix, which every seed shares.
  // Tracing overhead compares traced with untraced rounds.
  std::vector<const WindowStats*> windows;
  std::vector<double> window_steal, setup_steal, setups;
  std::vector<bool> window_traced;
  for (const RoundResult& r : rounds) {
    for (const WindowStats& w : r.windows) {
      windows.push_back(&w);
      window_steal.push_back(w.steal_share);
      window_traced.push_back(r.traced);
    }
    setup_steal.push_back(r.setup_steal_share);
  }
  const std::vector<std::size_t> kept =
      least_stolen(window_steal, kMaxStealShare, 4);
  std::vector<double> w_rps, lat, lat_traced, lat_untraced;
  double kept_requests = 0, kept_s = 0, kept_cpu_s = 0;
  for (std::size_t i : kept) {
    const WindowStats& w = *windows[i];
    w_rps.push_back(w.rps);
    kept_requests += static_cast<double>(w.requests);
    kept_s += static_cast<double>(w.end_ns - w.begin_ns) / 1e9;
    kept_cpu_s += w.cpu_s;
    lat.insert(lat.end(), w.latencies.begin(), w.latencies.end());
    auto& side = window_traced[i] ? lat_traced : lat_untraced;
    side.insert(side.end(), w.latencies.begin(), w.latencies.end());
  }
  std::sort(lat.begin(), lat.end());
  std::sort(lat_traced.begin(), lat_traced.end());
  std::sort(lat_untraced.begin(), lat_untraced.end());
  for (std::size_t i : least_stolen(setup_steal, kMaxStealShare, 2)) {
    setups.push_back(rounds[i].setup_s);
  }
  std::size_t timed_requests = 0;
  double requests = 0, rss = 0;
  HostTicks ticks;
  for (const RoundResult& r : rounds) {
    for (const ClientLog& l : r.measured) timed_requests += l.timed.size();
    requests += static_cast<double>(r.requests);
    rss = std::max(rss, r.rss_mb);
    ticks.iowait += r.ticks.iowait;
    ticks.steal += r.ticks.steal;
  }
  const double hits = sum_of(rounds, &RoundResult::hits);
  const double misses = sum_of(rounds, &RoundResult::misses);
  const double memo_hits = sum_of(rounds, &RoundResult::memo_hits);
  const double memo_misses = sum_of(rounds, &RoundResult::memo_misses);
  const double rtt_p50 = percentile_sorted(lat, 50);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"throughput_rps", kept_requests / kept_s, "1/s"},
        {"latency_p50_ms", rtt_p50, "ms"},
        {"latency_p90_ms", percentile_sorted(lat, 90), "ms"},
        {"server_cpu_ms_per_req", 1000.0 * kept_cpu_s / kept_requests, "ms"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"ok_pct", 100.0 - out.failed_pct(), "%"},
        {"mean_max_err_pct", mean_err, "%"},
        {"max_err_pct", max_err, "%"},
        {"verdict_match_pct",
         n_ref == 0 ? 0.0 : 100.0 * acc.verdict_matches / n_ref, "%"},
    };
  } else {
    std::vector<Span> spans;
    for (const RoundResult& r : rounds) {
      for (const ClientLog& l : r.measured) {
        spans.insert(spans.end(), l.spans.begin(), l.spans.end());
      }
    }
    const double router_us = replay_layers(plan, origin, spans, metrics);
    metrics.push_back({"net.wire_overhead_us", 1000.0 * rtt_p50 - router_us,
                       "us"});
    daemon_layer_metrics(rounds, metrics);
    const double p_traced =
        lat_traced.empty() ? 0 : percentile_sorted(lat_traced, 50);
    const double p_untraced =
        lat_untraced.empty() ? 0 : percentile_sorted(lat_untraced, 50);
    metrics.push_back({"trace.overhead_pct",
                       p_untraced > 0
                           ? 100.0 * (p_traced - p_untraced) / p_untraced
                           : 0,
                       "%"});

    const std::string span_path = args.out + "/spans-" + args.workload +
                                  "-" + std::to_string(args.seed) + ".jsonl";
    if (!write_spans(span_path, spans)) {
      errors.push_back("cannot write " + span_path);
    }
  }

  const auto list = [](const std::vector<double>& v) {
    std::string o = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char b[32];
      std::snprintf(b, sizeof b, "%s%.4f", i ? "," : "", v[i]);
      o += b;
    }
    return o + "]";
  };
  std::vector<double> round_setups;
  for (const RoundResult& r : rounds) round_setups.push_back(r.setup_s);
  const Quartiles rq = quartiles(w_rps);
  const Quartiles sq = quartiles(window_steal);
  std::printf(
      "diagnostics: {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"requests\":%.0f,\"timed_requests\":%zu,\"refused\":%zu,"
      "\"rounds\":%d,"
      "\"windows\":%zu,\"kept_windows\":%zu,"
      "\"kept_window_rps_q1_q2_q3\":[%.1f,%.1f,%.1f],"
      "\"window_steal_share_q1_q2_q3\":[%.4f,%.4f,%.4f],"
      "\"round_setup_s\":%s,\"round_setup_steal_share\":%s,"
      "\"mix\":{\"cache_hit_pct\":%.2f,\"cache_miss_pct\":%.2f,"
      "\"memo_reuse_pct\":%.2f},\"table4_opteron_4cpu_avg_pct\":%.4f,"
      "\"host\":{\"nproc\":%u,\"steal_ticks\":%llu,\"iowait_ticks\":%llu,"
      "\"loadavg_start\":\"%s\",\"loadavg_end\":\"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, requests, timed_requests, refused, kRounds, windows.size(),
      kept.size(), rq.q1, rq.q2, rq.q3, sq.q1, sq.q2, sq.q3,
      list(round_setups).c_str(), list(setup_steal).c_str(),
      hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0,
      hits + misses > 0 ? 100.0 * misses / (hits + misses) : 0.0,
      memo_hits + memo_misses > 0
          ? 100.0 * memo_hits / (memo_hits + memo_misses)
          : 0.0,
      inproc_mean, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(ticks.steal),
      static_cast<unsigned long long>(ticks.iowait), load_start.c_str(),
      load_end.c_str());
  for (const auto& e : errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  const bool correct = out.failed() == 0 && errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted());
  json += ", \"failed\": " + std::to_string(out.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
