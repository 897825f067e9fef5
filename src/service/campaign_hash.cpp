#include "service/campaign_hash.hpp"

#include <algorithm>
#include <vector>

#include "core/hash.hpp"

namespace estima::service {

std::uint64_t measurement_hash(const core::MeasurementSet& ms) {
  core::Fnv1a h;
  h.str(ms.workload);
  h.str(ms.machine);
  h.f64(ms.freq_ghz);
  h.f64(ms.dataset_bytes);
  h.u64(ms.cores.size());
  for (int c : ms.cores) h.i64(c);
  for (double t : ms.time_s) h.f64(t);

  // Category order is an artifact of how counters were harvested, not part
  // of the campaign's identity: digest each series independently and sort
  // the digests before they enter the stream.
  std::vector<std::uint64_t> cat_digests;
  cat_digests.reserve(ms.categories.size());
  for (const auto& cat : ms.categories) {
    core::Fnv1a ch;
    ch.u64(static_cast<std::uint64_t>(cat.domain));
    ch.str(cat.name);
    ch.u64(cat.values.size());
    for (double v : cat.values) ch.f64(v);
    cat_digests.push_back(ch.value());
  }
  std::sort(cat_digests.begin(), cat_digests.end());
  h.u64(cat_digests.size());
  for (std::uint64_t d : cat_digests) h.u64(d);
  return h.value();
}

std::uint64_t campaign_hash(const core::MeasurementSet& ms,
                            const core::PredictionConfig& cfg) {
  return campaign_hash(ms, core::config_signature(cfg));
}

std::uint64_t campaign_hash(const core::MeasurementSet& ms,
                            std::uint64_t config_signature) {
  core::Fnv1a h;
  h.u64(measurement_hash(ms));
  h.u64(config_signature);
  return h.value();
}

}  // namespace estima::service
