#include "inputs.hpp"

#include <random>
#include <sstream>
#include <stdexcept>

#include "simmachine/machine.hpp"
#include "simmachine/presets.hpp"
#include "simmachine/simulator.hpp"

namespace perfbench {

namespace core = estima::core;
namespace sim = estima::sim;

namespace {

// Requests per second of --seconds. A run sends a fixed count derived
// from these, never "as many as fit", so both sides of a comparison do
// identical work; they are sized so a run measures about 0.8 x --seconds
// on a calm 4-vCPU x86 host, leaving room for a busy one.
constexpr int kWarmRequestsPerSecond = 2900;
constexpr int kColdRequestsPerSecond = 110;
constexpr int kAppendsPerSecond = 360;

// warm-repeat: distinct campaigns re-read by the measured phase.
constexpr std::size_t kWarmCampaigns = 48;
// cold-fit: campaigns outside the measured set fitted during set-up.
constexpr std::size_t kColdWarmupPerRound = 16;

std::string request_bytes(const std::string& method, const std::string& target,
                          const std::string& body) {
  std::string out = method + ' ' + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

/// Campaign i of a seeded family. Preset, machine and measured range are
/// stratified over i so every seed gets the same work mix; the seed picks
/// the simulator noise, the starting preset and the request order.
Campaign seeded_campaign(std::mt19937_64& rng, std::size_t i,
                         std::size_t preset_offset, int min_points,
                         int point_range, int extra_points) {
  const auto& names = sim::presets::benchmark_workload_names();
  const std::string& preset = names[(i + preset_offset) % names.size()];
  const sim::MachineSpec m =
      (i / names.size()) % 2 == 0 ? sim::opteron48() : sim::xeon48();
  const int points = min_points + static_cast<int>(i % point_range);
  sim::SimOptions opts;
  opts.seed = rng();
  std::vector<int> cores;
  for (int c = 1; c <= points + extra_points; ++c) cores.push_back(c);
  Campaign c;
  c.name = "c" + std::to_string(i);
  c.ms = sim::simulate(sim::presets::workload(preset), m, cores, opts);
  c.start_points = static_cast<std::size_t>(points);
  return c;
}

std::vector<Campaign> reference_suite() {
  std::vector<Campaign> out;
  const sim::MachineSpec m = sim::opteron48();
  for (const auto& preset : sim::presets::benchmark_workload_names()) {
    Campaign c;
    c.name = "ref-" + preset;
    c.truth = sim::simulate(sim::presets::workload(preset), m,
                            sim::all_core_counts(m));
    c.ms = c.truth.truncated(kReferencePoints);
    c.reference = true;
    out.push_back(std::move(c));
  }
  return out;
}

void shuffle(std::vector<std::size_t>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng() % i]);
  }
}

std::size_t add_raw(Plan& p, std::string raw) {
  p.raws.push_back(std::move(raw));
  return p.raws.size() - 1;
}

void plan_warm_repeat(Plan& p, std::mt19937_64& rng, int seconds) {
  p.campaigns = reference_suite();
  const std::size_t offset = rng();
  for (std::size_t i = p.campaigns.size(); i < kWarmCampaigns; ++i) {
    p.campaigns.push_back(seeded_campaign(rng, i, offset, 8, 9, 0));
  }
  std::vector<std::size_t> raw(p.campaigns.size());
  for (std::size_t c = 0; c < p.campaigns.size(); ++c) {
    raw[c] = add_raw(p, request_bytes("POST", "/v1/predict",
                                      csv_of(p.campaigns[c].ms)));
  }
  const std::size_t per_round =
      static_cast<std::size_t>(kWarmRequestsPerSecond) * seconds / kRounds;
  for (int r = 0; r < kRounds; ++r) {
    Round round;
    for (std::size_t c = 0; c < p.campaigns.size(); ++c) {
      Request q;
      q.campaign = c;
      q.points = p.campaigns[c].ms.num_points();
      q.check = r == 0 && p.campaigns[c].reference ? Check::kSample
                                                   : Check::kStatus;
      q.raw = raw[c];
      round.setup[c % kClients].push_back(q);
    }
    const std::size_t start = rng() % p.campaigns.size();
    for (std::size_t i = 0; i < per_round; ++i) {
      Request q;
      q.campaign = (start + i) % p.campaigns.size();
      q.points = p.campaigns[q.campaign].ms.num_points();
      q.check = Check::kSameAsSetup;
      q.raw = raw[q.campaign];
      round.measured[i % kClients].push_back(q);
    }
    p.rounds.push_back(std::move(round));
  }
}

void plan_cold_fit(Plan& p, std::mt19937_64& rng, int seconds) {
  p.campaigns = reference_suite();
  const std::size_t measured_total =
      static_cast<std::size_t>(kColdRequestsPerSecond) * seconds;
  const std::size_t offset = rng();
  const std::size_t n_seeded =
      measured_total > p.campaigns.size() ? measured_total - p.campaigns.size()
                                          : 0;
  const std::size_t first_seeded = p.campaigns.size();
  for (std::size_t i = 0; i < n_seeded + kColdWarmupPerRound * kRounds; ++i) {
    Campaign c = seeded_campaign(rng, i, offset, 8, 9, 0);
    c.name = "c" + std::to_string(first_seeded + i);
    p.campaigns.push_back(std::move(c));
  }
  std::vector<std::size_t> order(first_seeded + n_seeded);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  const auto request_for = [&](std::size_t c, Check check) {
    Request q;
    q.campaign = c;
    q.points = p.campaigns[c].ms.num_points();
    q.check = check;
    q.raw = add_raw(p, request_bytes("POST", "/v1/predict",
                                     csv_of(p.campaigns[c].ms)));
    return q;
  };
  for (int r = 0; r < kRounds; ++r) {
    Round round;
    for (std::size_t k = 0; k < kColdWarmupPerRound; ++k) {
      const std::size_t c =
          first_seeded + n_seeded + r * kColdWarmupPerRound + k;
      round.setup[k % kClients].push_back(request_for(c, Check::kStatus));
    }
    const std::size_t lo = order.size() * r / kRounds;
    const std::size_t hi = order.size() * (r + 1) / kRounds;
    std::size_t seeded_samples = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t c = order[i];
      // Sample every reference campaign and the first two seeded ones.
      const bool sample =
          p.campaigns[c].reference || seeded_samples++ < 2;
      round.measured[(i - lo) % kClients].push_back(
          request_for(c, sample ? Check::kSample : Check::kStatus));
    }
    p.rounds.push_back(std::move(round));
  }
}

void plan_stream_append(Plan& p, std::mt19937_64& rng, int seconds) {
  p.timed_kind = Kind::kAppend;
  p.campaigns = reference_suite();
  for (Campaign& c : p.campaigns) {
    c.start_points = kReferencePoints - kAppendsPerCampaign;
  }
  const std::size_t total = static_cast<std::size_t>(kAppendsPerSecond) *
                            seconds / kAppendsPerCampaign;
  const std::size_t offset = rng();
  for (std::size_t i = p.campaigns.size(); i < total; ++i) {
    p.campaigns.push_back(
        seeded_campaign(rng, i, offset, 6, 5, kAppendsPerCampaign));
  }
  std::vector<std::size_t> order(p.campaigns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  for (int r = 0; r < kRounds; ++r) {
    Round round;
    const std::size_t lo = order.size() * r / kRounds;
    const std::size_t hi = order.size() * (r + 1) / kRounds;
    bool seeded_sampled = false;
    std::vector<std::size_t> sampled;  // campaigns whose final GET is kept
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t c = order[i];
      const Campaign& cam = p.campaigns[c];
      const std::string target = "/v1/campaigns/" + cam.name;
      const int client = static_cast<int>((i - lo) % kClients);
      Request put;
      put.kind = Kind::kPut;
      put.campaign = c;
      put.points = cam.start_points;
      put.raw = add_raw(p, request_bytes("PUT", target,
                                         csv_of(cam.ms.truncated(
                                             cam.start_points))));
      round.setup[client].push_back(put);
      Request get;
      get.kind = Kind::kGet;
      get.campaign = c;
      get.points = cam.start_points;
      get.raw = add_raw(p, request_bytes("GET", target, ""));
      round.setup[client].push_back(get);
      if (cam.reference || !seeded_sampled) {
        seeded_sampled = seeded_sampled || !cam.reference;
        sampled.push_back(c);
      }
    }
    // Interleave: each client walks its campaigns round-robin, one
    // appended point then one read of the same campaign per step.
    for (int s = 0; s < kAppendsPerCampaign; ++s) {
      for (int client = 0; client < kClients; ++client) {
        for (const Request& put : round.setup[client]) {
          if (put.kind != Kind::kPut) continue;
          const Campaign& cam = p.campaigns[put.campaign];
          const std::size_t at = cam.start_points + s;
          Request app;
          app.kind = Kind::kAppend;
          app.campaign = put.campaign;
          app.points = at + 1;
          app.raw = add_raw(
              p, request_bytes("POST", "/v1/campaigns/" + cam.name + "/points",
                               csv_of(slice(cam.ms, at, at + 1))));
          round.measured[client].push_back(app);
          Request get;
          get.kind = Kind::kGet;
          get.campaign = put.campaign;
          get.points = at + 1;
          const bool last = s + 1 == kAppendsPerCampaign;
          bool keep = false;
          for (std::size_t c : sampled) keep = keep || c == put.campaign;
          get.check = last && keep ? Check::kSample : Check::kStatus;
          get.raw = put.raw + 1;  // the campaign's GET from set-up
          round.measured[client].push_back(get);
        }
      }
    }
    p.rounds.push_back(std::move(round));
  }
}

}  // namespace

std::optional<Workload> workload_from_name(const std::string& name) {
  if (name == "warm-repeat") return Workload::kWarmRepeat;
  if (name == "cold-fit") return Workload::kColdFit;
  if (name == "stream-append") return Workload::kStreamAppend;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kWarmRepeat:
      return "warm-repeat";
    case Workload::kColdFit:
      return "cold-fit";
    case Workload::kStreamAppend:
      return "stream-append";
  }
  return "?";
}

std::string csv_of(const core::MeasurementSet& ms) {
  std::ostringstream os;
  core::write_csv(os, ms);
  return os.str();
}

core::MeasurementSet slice(const core::MeasurementSet& ms, std::size_t from,
                           std::size_t to) {
  core::MeasurementSet out = ms;
  out.cores.assign(ms.cores.begin() + from, ms.cores.begin() + to);
  out.time_s.assign(ms.time_s.begin() + from, ms.time_s.begin() + to);
  for (std::size_t k = 0; k < ms.categories.size(); ++k) {
    const auto& v = ms.categories[k].values;
    out.categories[k].values.assign(v.begin() + from, v.begin() + to);
  }
  return out;
}

Plan make_plan(Workload w, std::uint64_t seed, int seconds) {
  if (seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  // Each workload draws from its own stream of the seed.
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(w)};
  std::mt19937_64 rng(seq);
  Plan p;
  p.workload = w;
  switch (w) {
    case Workload::kWarmRepeat:
      plan_warm_repeat(p, rng, seconds);
      break;
    case Workload::kColdFit:
      plan_cold_fit(p, rng, seconds);
      break;
    case Workload::kStreamAppend:
      plan_stream_append(p, rng, seconds);
      break;
  }
  return p;
}

}  // namespace perfbench
