// Hardware performance-counter event descriptors.
//
// These are the exact event lists the paper uses:
//  * Table 2 — AMD family 10h (Opteron 6172) backend dispatch stalls;
//  * Table 3 — recent Intel (Haswell/Ivy Bridge Xeon) allocation stalls.
// Plus representative frontend-stall events for the Table 6 ablation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace estima::counters {

/// Processor family whose counter set we know how to program.
enum class CounterArch {
  kAmdFam10h,  ///< AMD Opteron 6100-series (BKDG for family 10h)
  kIntelCore,  ///< Intel Core/Xeon (SDM vol. 3B)
};

/// Which pipeline stage an event accounts for.
enum class EventStage { kBackend, kFrontend };

struct EventDesc {
  std::string code;    ///< vendor event code, e.g. "0D6h" or "04A2h"
  std::string name;    ///< descriptive name from the vendor manual
  EventStage stage = EventStage::kBackend;
  /// raw perf_event_attr config value (event | umask<<8) for PERF_TYPE_RAW.
  std::uint64_t raw_config = 0;

  /// The label ESTIMA uses for the stall category ("<code> <name>").
  std::string category_label() const { return code + " " + name; }
};

/// Backend stall events for the architecture (Tables 2 and 3).
const std::vector<EventDesc>& backend_events(CounterArch arch);

/// Frontend stall events for the architecture (Section 5.2 ablation).
const std::vector<EventDesc>& frontend_events(CounterArch arch);

/// Maximum events a PMU of this family can count concurrently without
/// multiplexing (the paper's Section 2.2 constraint of ~4).
int max_concurrent_events(CounterArch arch);

}  // namespace estima::counters
