// Named, mutable measurement campaigns with incremental re-prediction.
//
// The serving layer's campaigns were immutable: a campaign IS its
// campaign_hash, so appending one measured point meant a brand-new hash
// and a full cold recompute. The CampaignStore makes campaigns
// first-class mutable entities addressed by NAME:
//   * PUT    creates (or replaces) a named campaign from a MeasurementSet;
//   * POST   appends points measured at higher core counts;
//   * GET    predicts the campaign's current state;
//   * DELETE removes it.
// The name→current-hash mapping is stable across appends; each append
// bumps the campaign's version, invalidates EXACTLY the superseded hash in
// the result cache (ResultCache::erase), and re-predicts *incrementally*:
// every campaign carries a persistent core::FitMemo, so a re-prediction
// only executes the (kernel, prefix) fits that reach into the new points —
// old prefixes are bit-identical (appends only add higher core counts) and
// replay from the memo. The memoized prediction is byte-identical to a
// cold predict() (see fit_memo.hpp), so it shares the ordinary cache/
// in-flight machinery under the new hash.
//
// Concurrency: the store mutex guards only the name→campaign map; each
// campaign has its own mutex serializing mutation and prediction of THAT
// campaign (an append-then-predict pair is atomic per campaign), while
// distinct campaigns predict concurrently. The underlying
// PredictionService is shared with the stateless /v1/predict path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fit_memo.hpp"
#include "core/measurement.hpp"
#include "service/prediction_service.hpp"

namespace estima::service {

/// Thrown by append/predict/info when no campaign has the given name;
/// the router maps it to 404 (distinct from std::invalid_argument = 400).
struct CampaignNotFound : std::runtime_error {
  explicit CampaignNotFound(const std::string& name)
      : std::runtime_error("campaign not found: " + name) {}
};

/// A campaign's externally visible state at one instant.
struct CampaignInfo {
  std::string name;
  std::uint64_t version = 0;  ///< 1 on create, +1 per append/replace
  std::uint64_t hash = 0;     ///< current campaign_hash
  std::size_t points = 0;     ///< measured core counts so far
  core::FitMemoStats memo;    ///< cumulative fit-memo accounting
};

struct CampaignStoreStats {
  std::uint64_t created = 0;    ///< PUT on a fresh name
  std::uint64_t replaced = 0;   ///< PUT on an existing name
  std::uint64_t deleted = 0;
  std::uint64_t appends = 0;    ///< successful point appends
  std::uint64_t predictions = 0;
  /// Superseded hashes actually removed from the result cache by
  /// append/replace/delete (an erase of a never-cached hash is not one).
  std::uint64_t hash_invalidations = 0;
  std::uint64_t active = 0;     ///< campaigns currently resident
};

class CampaignStore {
 public:
  /// `service` is borrowed and shared with the stateless endpoints.
  /// `max_campaigns` bounds resident campaigns; create() past the bound
  /// throws std::invalid_argument (the router's 400).
  explicit CampaignStore(PredictionService& service,
                         std::size_t max_campaigns = 256);

  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  /// PUT: create (or atomically replace) the named campaign. `ms` must
  /// pass the same validation predict() applies on ingestion (≥ 3 points,
  /// ascending cores, consistent categories) — a campaign that cannot be
  /// predicted must not be storable. Replacing resets the version history
  /// and fit memo (it is a new series) and invalidates the replaced
  /// hash's cache entry. Returns the new state; `created`, when non-null,
  /// reports create (true) vs replace.
  CampaignInfo create(const std::string& name, core::MeasurementSet ms,
                      bool* created = nullptr);

  /// POST points: append `delta`'s measurements to the named campaign.
  /// `delta` must carry identical metadata (workload, machine, freq_ghz,
  /// dataset_bytes) and identical categories (name, domain, order), at
  /// least one point, internally ascending cores all strictly greater
  /// than the campaign's last measured core count — duplicates and
  /// out-of-order points are rejected with std::invalid_argument, leaving
  /// the campaign untouched. On success the superseded hash is erased
  /// from the result cache and the version bumps. Throws CampaignNotFound
  /// for unknown names.
  CampaignInfo append(const std::string& name,
                      const core::MeasurementSet& delta);

  /// GET: predict the campaign's current state through the shared
  /// service — cache-fronted and in-flight-deduped under the current
  /// hash, with the campaign's persistent FitMemo attached so misses
  /// refit only what the latest appends created. Returns the cached
  /// answer itself (PredictionService::answer, keyed by the hash the
  /// campaign already holds), with its kept record when there is one.
  /// `info`, when non-null, receives the state the prediction
  /// corresponds to.
  CachedAnswer answer(const std::string& name,
                      const core::Deadline* deadline = nullptr,
                      obs::TraceContext* trace = nullptr,
                      CacheDisposition* disposition = nullptr,
                      CampaignInfo* info = nullptr);

  /// answer(), by value.
  core::Prediction predict(const std::string& name,
                           const core::Deadline* deadline = nullptr,
                           obs::TraceContext* trace = nullptr,
                           CacheDisposition* disposition = nullptr,
                           CampaignInfo* info = nullptr);

  /// DELETE: removes the campaign and invalidates its current hash.
  /// Returns false for unknown names (the router's 404).
  bool remove(const std::string& name);

  /// Current state without predicting. Throws CampaignNotFound.
  CampaignInfo info(const std::string& name) const;

  CampaignStoreStats stats() const;

 private:
  struct Campaign {
    mutable std::mutex mu;
    core::MeasurementSet ms;
    std::uint64_t version = 0;
    std::uint64_t hash = 0;
    core::FitMemo memo;
  };

  CampaignInfo info_locked(const std::string& name, const Campaign& c) const;
  std::shared_ptr<Campaign> find(const std::string& name) const;

  PredictionService& service_;
  const std::size_t max_campaigns_;

  mutable std::mutex mu_;  ///< guards map_ and stats_
  std::unordered_map<std::string, std::shared_ptr<Campaign>> map_;
  CampaignStoreStats stats_;  ///< every field but `active`, which is map_
};

}  // namespace estima::service
