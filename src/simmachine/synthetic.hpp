// Analytic ground-truth measurement campaigns with known scaling behaviour,
// independent of the cycle simulator: the fixtures of the tests, benches
// and demo examples.
//
// The model mirrors how stalls arise on real machines: each core executes
// its share of the work and *additionally* spends stall cycles whose
// per-instruction rate grows with the number of cores (contention). Per-core
// stall cycles are therefore bounded by per-core execution cycles, and
// stalls-per-core naturally tracks execution time (the paper's Fig 5(g)).
#pragma once

#include <cmath>
#include <vector>

#include "core/measurement.hpp"

namespace estima::sim {

struct SyntheticSpec {
  double work_cycles = 1e10;   ///< total useful work (strong scaling)
  double serial_frac = 0.01;   ///< Amdahl serial fraction
  double mem_rate = 0.3;       ///< base memory-stall cycles per work cycle
  double mem_growth = 0.02;    ///< contention growth of mem rate per core
  double lock_rate = 0.0;      ///< per-core lock stalls = lock_rate * W * n
  double stm_rate = 0.0;       ///< per-core abort stalls = rate*(W/n)*n^exp
  double stm_exp = 2.2;
  double freq_ghz = 2.0;
  double noise = 0.0;          ///< multiplicative deterministic ripple
};

/// Generates a campaign at the given core counts. Stall categories: two
/// hardware backend series (memory-ish and queue-ish split of the memory
/// stalls, plus lock stalls folded into the queue series) and one optional
/// software series for STM aborts.
inline core::MeasurementSet make_synthetic(
    const SyntheticSpec& s, const std::vector<int>& cores,
    const char* workload = "synthetic") {
  core::MeasurementSet ms;
  ms.workload = workload;
  ms.machine = "synthetic-machine";
  ms.freq_ghz = s.freq_ghz;

  core::StallSeries mem{"mem_stall", core::StallDomain::kHardwareBackend, {}};
  core::StallSeries rob{"rob_full", core::StallDomain::kHardwareBackend, {}};
  core::StallSeries sw{"stm_abort_cycles", core::StallDomain::kSoftware, {}};

  const double hz = s.freq_ghz * 1e9;
  const double W = s.work_cycles;
  for (int n : cores) {
    const double nd = n;
    const double ripple = 1.0 + s.noise * std::sin(2.39996 * nd);

    // Per-core stall cycles (each core's pipeline time lost while running
    // its W/n share of the work).
    const double per_core_work = W / nd;
    const double mem_stall_pc =
        per_core_work * s.mem_rate * (1.0 + s.mem_growth * nd) * ripple;
    const double lock_stall_pc = s.lock_rate * W * nd * ripple;
    const double stm_stall_pc =
        s.stm_rate * per_core_work * std::pow(nd, s.stm_exp) * ripple;

    const double serial = W * s.serial_frac;
    const double cycles_per_core =
        per_core_work + serial + mem_stall_pc + lock_stall_pc + stm_stall_pc;

    ms.cores.push_back(n);
    ms.time_s.push_back(cycles_per_core / hz);
    // Category totals are summed over all cores (what counters report).
    mem.values.push_back(0.7 * mem_stall_pc * nd);
    rob.values.push_back((0.3 * mem_stall_pc + lock_stall_pc) * nd);
    sw.values.push_back(stm_stall_pc * nd);
  }
  ms.categories.push_back(std::move(mem));
  ms.categories.push_back(std::move(rob));
  if (s.stm_rate > 0.0) ms.categories.push_back(std::move(sw));
  return ms;
}

inline std::vector<int> counts_up_to(int m) {
  std::vector<int> v;
  for (int i = 1; i <= m; ++i) v.push_back(i);
  return v;
}

}  // namespace estima::sim
