// Measurement campaigns over native workloads (pipeline step A).
//
// The Sampler runs a caller-provided parallel region at increasing thread
// counts (socket-first pinning), collecting:
//   * wall-clock time,
//   * hardware backend stalls via perf (when the kernel allows it),
//   * software stalls reported by the workload (STM aborts, lock spins).
// The result is a core::MeasurementSet ready for core::predict().
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "counters/events.hpp"
#include "counters/topology.hpp"

namespace estima::counters {

/// What a workload reports after a run.
struct RunReport {
  double seconds = 0.0;  ///< filled in by the sampler (wall time)
  /// Software stall cycles by category, summed over threads.
  std::map<std::string, double> software_stalls;
};

/// A parallel region: run the workload with `threads` threads and return
/// software-stall totals. The callable does its own thread management (the
/// workloads in src/workloads all do).
using ParallelRegion = std::function<RunReport(int threads)>;

struct SamplerOptions {
  CounterArch arch = CounterArch::kIntelCore;
  bool include_frontend = false;
  bool pin_threads = true;   ///< advisory; the region receives the cpu order
  int repetitions = 1;       ///< measurement repetitions (min time kept)
  double freq_ghz = 0.0;     ///< 0 => estimate from a timed spin
};

/// Runs `region` at every core count in `core_counts` and assembles the
/// MeasurementSet. Hardware stalls come from perf when available; otherwise
/// only software categories are emitted (and the caller may combine this
/// with the simulator for hardware numbers).
core::MeasurementSet run_campaign(const std::string& workload_name,
                                  const ParallelRegion& region,
                                  const std::vector<int>& core_counts,
                                  const SamplerOptions& opts = {});

/// Estimates the CPU frequency in GHz by timing a calibrated spin loop.
double estimate_freq_ghz();

}  // namespace estima::counters
