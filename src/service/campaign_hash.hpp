// Stable 64-bit campaign identity for the serving layer.
//
// A campaign is a (MeasurementSet, PredictionConfig) pair, and predict()
// is a pure function of it, so one hash names one answer. The digest is
// FNV-1a over canonicalized fields (core/hash.hpp + config_signature) and
// is insensitive to the order in which stall categories were recorded:
// per-category digests are sorted before entering the stream, so two
// permutations of the same campaign share a cache line and are served the
// first-seen ordering's prediction. Every value change — a core count, a
// stall sample, a config knob — produces a different hash. "One hash
// names one answer" covers the predicted values (times, stalls, chosen
// fits), not the Prediction's work-accounting fields, which describe
// whichever run computed the cached entry (see config_signature).
//
// 64 bits is an accepted tradeoff, not an oversight: distinct campaigns
// colliding becomes likely only around ~2^32 cached entries (far beyond
// any ResultCache capacity here), and FNV-1a is not collision-resistant
// against adversarially crafted inputs — do not key trust decisions on
// this hash, and front hostile multi-tenant traffic with a stronger
// digest before it reaches the cache.
#pragma once

#include <cstdint>

#include "core/measurement.hpp"
#include "core/predictor.hpp"

namespace estima::service {

/// Digest of the measurement alone (workload, machine, clocks, series).
std::uint64_t measurement_hash(const core::MeasurementSet& ms);

/// Full campaign key: measurement digest + config_signature.
std::uint64_t campaign_hash(const core::MeasurementSet& ms,
                            const core::PredictionConfig& cfg);

/// The same key from a config_signature computed once: a server's config
/// is immutable, so it need not re-hash it on every request.
std::uint64_t campaign_hash(const core::MeasurementSet& ms,
                            std::uint64_t config_signature);

}  // namespace estima::service
