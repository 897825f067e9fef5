// Exact LRU cache of completed Predictions keyed by campaign hash.
//
// One recency list and one index, no internal locking: the cache is a
// plain data structure whose owner (PredictionService) holds it, the
// in-flight table and the service counters under one mutex. Capacity is
// a hard bound on the number of answers held and eviction is strictly
// least-recently-used. Values are shared_ptr<const Prediction>, so a hit
// and an export hand out the cached object without copying it.
//
// Entries never expire: a prediction is a pure function of the campaign
// and the config, and the key (campaign_hash) folds in both, so a
// resident answer is the answer for as long as it is resident. An entry
// leaves only by LRU eviction or erase().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/predictor.hpp"
#include "service/snapshot.hpp"

namespace estima::service {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< currently cached predictions
  /// erase() calls that removed a resident entry (streaming appends
  /// invalidating a campaign's superseded hash).
  std::uint64_t invalidations = 0;
};

class ResultCache {
 public:
  /// `capacity` = maximum cached predictions (0 is treated as 1).
  explicit ResultCache(std::size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached prediction and marks it most-recently-used, or
  /// nullptr on miss. Counts one hit or miss.
  std::shared_ptr<const core::Prediction> get(std::uint64_t key);

  /// The hit-only lookup: a resident entry is a hit exactly as through
  /// get() (counted, recency refreshed); an absent one returns nullptr
  /// and counts nothing, so the caller can fall back to get() and have
  /// the request counted once.
  std::shared_ptr<const core::Prediction> get_if_resident(std::uint64_t key);

  /// Inserts (or replaces) a completed prediction as most-recently-used,
  /// evicting the least-recently-used entry when full.
  void put(std::uint64_t key, std::shared_ptr<const core::Prediction> value);

  /// Removes the entry for `key` so the next lookup recomputes; returns
  /// true when an entry was removed and counts it in
  /// CacheStats::invalidations. Point invalidation for streaming appends:
  /// a campaign's new point changes its campaign_hash, and the superseded
  /// hash's entry must die at once instead of waiting for eviction.
  bool erase(std::uint64_t key);

  CacheStats stats() const;

  /// Every entry, least- to most-recently-used, so replaying them
  /// through put() in order (snapshot restore) reproduces the recency.
  std::vector<SnapshotEntry> entries() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const core::Prediction> value;
  };

  std::size_t capacity_;
  /// front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  CacheStats stats_;  ///< every field but `entries`, which is lru_.size()
};

}  // namespace estima::service
