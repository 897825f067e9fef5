// Exact LRU cache of completed Predictions keyed by campaign hash.
//
// One recency list and one index, no internal locking: the cache is a
// plain data structure whose owner (PredictionService) holds it, the
// in-flight table and the service counters under one mutex. Capacity is
// a hard bound on the number of answers held and eviction is strictly
// least-recently-used. Values are shared_ptr<const Prediction>, so a hit
// and an export hand out the cached object without copying it.
//
// Entries can carry a TTL (ttl > 0): an expired entry reads as a miss
// through get() — forcing a recompute that put() will refresh — but stays
// resident until evicted or refreshed, so the serving layer can
// deliberately fall back to it (lookup_stale) when shedding load. With
// ttl = 0 (the default) nothing ever expires.
#pragma once

#include <chrono>
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
  /// get() finding only an expired entry (counted inside misses as well —
  /// an expired hit IS a miss to normal lookups).
  std::uint64_t expired_misses = 0;
  /// lookup_stale() answers served from an expired entry.
  std::uint64_t stale_hits = 0;
  /// erase() calls that removed a resident entry (streaming appends
  /// invalidating a campaign's superseded hash).
  std::uint64_t invalidations = 0;
};

/// What lookup_stale() found for a key.
struct StaleLookup {
  std::shared_ptr<const core::Prediction> value;  ///< null = not resident
  bool stale = false;  ///< true when `value` is expired (degraded answer)
};

class ResultCache {
 public:
  /// `capacity` = maximum cached predictions (0 is treated as 1). A
  /// positive `ttl` makes entries expire that long after their last
  /// put(); zero = entries never expire.
  explicit ResultCache(std::size_t capacity,
                       std::chrono::milliseconds ttl = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached prediction and marks it most-recently-used, or
  /// nullptr on miss. An expired entry is a miss (it stays resident but
  /// gets no recency refresh). Counts one hit or miss.
  std::shared_ptr<const core::Prediction> get(std::uint64_t key);

  /// The hit-only lookup: a fresh entry is a hit exactly as through get()
  /// (counted, recency refreshed); anything else — absent or expired —
  /// returns nullptr and counts nothing, so the caller can fall back to
  /// get() and have the request counted once.
  std::shared_ptr<const core::Prediction> get_if_fresh(std::uint64_t key);

  /// Degraded-mode lookup: returns whatever is resident for the key, even
  /// expired, flagging staleness. A stale answer counts stale_hits and
  /// does not refresh recency (shedding must not keep dead entries warm);
  /// a fresh one counts a normal hit and does.
  StaleLookup lookup_stale(std::uint64_t key);

  /// Inserts (or refreshes) a completed prediction, evicting the
  /// least-recently-used entry when full.
  ///
  /// TTL semantics (deliberate, relied on by streaming invalidation): a
  /// put() on an existing key ALWAYS re-stamps the entry's TTL clock and
  /// recency, even when the value is bit-identical to the resident one —
  /// a put() means "this answer was just recomputed", and a recompute is
  /// fresh by definition. The one writer allowed to put() is the
  /// in-flight owner that actually ran predict(); joiners that
  /// merely waited for the owner's result never put(), so a dedup'd join
  /// can never revive a dying entry without a real recompute behind it.
  void put(std::uint64_t key, std::shared_ptr<const core::Prediction> value);

  /// Removes the entry for `key` (resident or expired) so the next lookup
  /// recomputes; returns true when an entry was removed and counts it in
  /// CacheStats::invalidations. Point invalidation for streaming appends:
  /// a campaign's new point changes its campaign_hash, and the superseded
  /// hash's entry must die immediately — it could otherwise be served
  /// (fresh, or via lookup_stale) for the full TTL even though the
  /// campaign has moved on.
  bool erase(std::uint64_t key);

  CacheStats stats() const;

  /// The unexpired entries, least- to most-recently-used, so replaying
  /// them through put() in order reproduces the recency. Entries expired
  /// now are left out: the main caller is snapshot_to, and restore
  /// replays entries through put(), which re-stamps the TTL clock —
  /// persisting an expired entry would resurrect a stale answer as fresh
  /// after restart, violating bounded staleness.
  std::vector<SnapshotEntry> entries() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const core::Prediction> value;
    Clock::time_point inserted;
  };

  bool expired(const Entry& e, Clock::time_point now) const {
    return ttl_.count() != 0 && now - e.inserted > ttl_;
  }

  std::size_t capacity_;
  std::chrono::milliseconds ttl_;
  /// front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  CacheStats stats_;  ///< every field but `entries`, which is lru_.size()
};

}  // namespace estima::service
