// Seeded request generation. Every input the daemon sees is built here,
// from (workload, seed, seconds) alone, before any daemon starts: the
// program only ever receives CSV bodies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/measurement.hpp"

namespace perfbench {

enum class Workload { kWarmRepeat, kColdFit, kStreamAppend };

std::optional<Workload> workload_from_name(const std::string& name);
const char* workload_name(Workload w);

/// Daemon load shape shared by every workload: two prediction threads,
/// two handler workers, one event loop, slow-trace ring off.
inline constexpr int kPredictionThreads = 2;
inline constexpr int kClients = 2;
/// Every run is split into this many rounds, each against a freshly
/// spawned daemon, so set-up is measured several times per run.
inline constexpr int kRounds = 5;
/// Extrapolation horizon the daemon predicts to (its --target default).
inline constexpr int kTargetCores = 48;
/// The Table 4 suite: every benchmark preset on opteron48, measured on
/// one processor (12 cores), simulator seed 0.
inline constexpr int kReferencePoints = 12;
/// Stream-append: points each streamed campaign gains, one per append.
inline constexpr int kAppendsPerCampaign = 6;

struct Campaign {
  std::string name;
  /// Every point the run will ever send for this campaign.
  estima::core::MeasurementSet ms;
  /// Full-machine simulation; only kept for the reference suite.
  estima::core::MeasurementSet truth;
  bool reference = false;
  /// Stream-append: points in the initial PUT.
  std::size_t start_points = 0;
};

enum class Kind { kPredict, kPut, kGet, kAppend };

/// What the benchmark checks on the response, beyond a 2xx status.
enum class Check {
  kStatus,       ///< 2xx only
  kSameAsSetup,  ///< body byte-equal to this campaign's set-up answer
  kSample,       ///< body kept and compared with an in-process predict()
};

struct Request {
  Kind kind = Kind::kPredict;
  std::size_t campaign = 0;
  /// Points of the campaign the answer describes (for kSample checks).
  std::size_t points = 0;
  Check check = Check::kStatus;
  std::size_t raw = 0;  ///< index into Plan::raws
};

struct Round {
  std::vector<Request> setup[kClients];
  std::vector<Request> measured[kClients];
};

struct Plan {
  Workload workload = Workload::kWarmRepeat;
  std::vector<Campaign> campaigns;
  std::vector<std::string> raws;  ///< complete HTTP/1.1 request bytes
  std::vector<Round> rounds;
  /// Latency is reported over requests of this kind only.
  Kind timed_kind = Kind::kPredict;
};

Plan make_plan(Workload w, std::uint64_t seed, int seconds);

std::string csv_of(const estima::core::MeasurementSet& ms);

/// Points [from, to) of `ms` as a campaign of their own (an append delta).
estima::core::MeasurementSet slice(const estima::core::MeasurementSet& ms,
                                   std::size_t from, std::size_t to);

}  // namespace perfbench
