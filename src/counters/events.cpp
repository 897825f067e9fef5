#include "counters/events.hpp"

namespace estima::counters {
namespace {

// Table 2: AMD family 10h dispatch-stall events (BKDG for family 10h).
// raw_config packs PERF_TYPE_RAW EventSelect in the low byte (umask 0).
const std::vector<EventDesc> kAmdBackend = {
    {"0D2h", "Dispatch Stall for Branch Abort to Retire",
     EventStage::kBackend, 0x0D2},
    {"0D5h", "Dispatch Stall for Reorder Buffer Full", EventStage::kBackend,
     0x0D5},
    {"0D6h", "Dispatch Stall for Reservation Station Full",
     EventStage::kBackend, 0x0D6},
    {"0D7h", "Dispatch Stall for FPU Full", EventStage::kBackend, 0x0D7},
    {"0D8h", "Dispatch Stall for LS Full", EventStage::kBackend, 0x0D8},
};

const std::vector<EventDesc> kAmdFrontend = {
    {"0D0h", "Decoder Empty", EventStage::kFrontend, 0x0D0},
    {"0D1h", "Dispatch Stalls", EventStage::kFrontend, 0x0D1},
};

// Table 3: Intel allocation/backend stall events (SDM vol. 3B).
// raw_config packs event | (umask << 8): e.g. 04A2h = umask 04, event A2.
const std::vector<EventDesc> kIntelBackend = {
    {"0487h", "Stalled cycles due to IQ full", EventStage::kBackend,
     0x0487},
    {"01A2h", "Cycles allocation stalled due to resource-related reasons",
     EventStage::kBackend, 0x01A2},
    {"04A2h", "No eligible RS entry available", EventStage::kBackend,
     0x04A2},
    {"08A2h", "No store buffers available", EventStage::kBackend, 0x08A2},
    {"10A2h", "Re-order buffer full", EventStage::kBackend, 0x10A2},
};

const std::vector<EventDesc> kIntelFrontend = {
    {"019Ch", "IDQ_UOPS_NOT_DELIVERED.CORE", EventStage::kFrontend, 0x019C},
    {"0280h", "ICACHE.MISSES", EventStage::kFrontend, 0x0280},
};

}  // namespace

const std::vector<EventDesc>& backend_events(CounterArch arch) {
  switch (arch) {
    case CounterArch::kAmdFam10h: return kAmdBackend;
    case CounterArch::kIntelCore: return kIntelBackend;
  }
  return kAmdBackend;
}

const std::vector<EventDesc>& frontend_events(CounterArch arch) {
  switch (arch) {
    case CounterArch::kAmdFam10h: return kAmdFrontend;
    case CounterArch::kIntelCore: return kIntelFrontend;
  }
  return kAmdFrontend;
}

int max_concurrent_events(CounterArch arch) {
  switch (arch) {
    case CounterArch::kAmdFam10h: return 4;
    case CounterArch::kIntelCore: return 4;
  }
  return 4;
}

}  // namespace estima::counters
