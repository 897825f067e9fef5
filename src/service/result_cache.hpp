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
//
// Kept records. An entry may also hold the `prediction v=1` record bytes
// of its answer, byte-equal to render_prediction(*value), so a repeat
// read copies them instead of rendering again. Only a /v1/predict hit
// answered on the handler pool keeps one (PredictionService::keep_record,
// after the pool rendered the answer); misses, batches, campaign routes
// and snapshot restores keep nothing, so records cost memory only where
// reads repeat. A record is stored at its exact size (the renderer's
// buffer is an upper bound, ~1.6x larger), the first keep wins, and
// CacheStats::record_bytes is the exact sum of their sizes.
//
// Kept bodies. The same keep also stores the request body that named the
// entry and a digest of it (std::hash<std::string_view>, computed by the
// caller and never persisted); a second index maps digest -> entry. A
// later request whose body is byte-equal to a kept one is answered by
// get_by_body() without parsing or hashing the campaign: a key is a pure
// function of the body bytes and the fixed config, so an exact match can
// never name another answer. The digest only finds the candidate; the
// byte compare decides. An entry keeps one body, the one its latest keep
// brought: a different body replaces it and frees its digest slot, unless
// another entry already holds the new digest — then the old body stays,
// so a collision costs the full path, never a wrong answer. A body is
// kept only beside a record, so get_by_body() always finds one.
// CacheStats::body_bytes is the exact sum of kept body sizes.
//
// Record and body live and die with their entry, together: eviction,
// erase() and a put() over a resident key drop both (and free the body's
// index slot), and neither is ever snapshotted or restored — a snapshot
// holds answers, a record and a body are caches of bytes. Worst case the
// cache holds capacity x (answer + record + body), where a kept body is
// at most the router's ServiceRouter::kMaxKeptBodyBytes.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
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
  /// Sum of the sizes of the records currently kept (bytes).
  std::uint64_t record_bytes = 0;
  /// Sum of the sizes of the request bodies currently kept (bytes).
  std::uint64_t body_bytes = 0;
};

/// A cached answer: the prediction, and its kept record when a hit has
/// kept one (null otherwise). Both null on a miss.
struct CachedAnswer {
  std::shared_ptr<const core::Prediction> prediction;
  std::shared_ptr<const std::string> record;
};

class ResultCache {
 public:
  /// `capacity` = maximum cached predictions (0 is treated as 1).
  explicit ResultCache(std::size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached answer, marked most-recently-used, or nulls on a miss.
  /// Counts one hit or miss.
  CachedAnswer get(std::uint64_t key);

  /// The body lookup: when an entry keeps a body under `digest` that is
  /// byte-equal to `body`, a hit exactly as through get() (counted,
  /// recency refreshed), with the entry's key in `*key`. Any other
  /// outcome — no body under the digest, or different bytes — returns
  /// nulls and counts nothing.
  CachedAnswer get_by_body(std::size_t digest, std::string_view body,
                           std::uint64_t* key);

  /// Inserts (or replaces) a completed prediction as most-recently-used,
  /// evicting the least-recently-used entry when full. Replacing drops
  /// the entry's kept record and body.
  void put(std::uint64_t key, std::shared_ptr<const core::Prediction> value);

  /// Keeps bytes beside the entry for `key` when that entry still holds
  /// `answer` itself: `record` (render_prediction(*answer), exact size)
  /// when the entry has no record yet — the first keep wins — and a
  /// non-empty `body` (the request body that named `key`, exact size)
  /// under `body_digest`, replacing a different kept body unless another
  /// entry holds that digest. A null `record` keeps a body only beside an
  /// existing record. Returns whether it kept either. The caller still
  /// owns a reference to `answer`, so no other object can have taken its
  /// address and the pointer comparison is exact. Counts nothing and
  /// leaves recency alone: the hit that rendered the record was counted
  /// already.
  bool keep_record(std::uint64_t key, const core::Prediction* answer,
                   std::shared_ptr<const std::string> record,
                   std::string body = {}, std::size_t body_digest = 0);

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
    std::shared_ptr<const std::string> record;
    std::string body;  ///< empty when none is kept
    std::size_t body_digest = 0;
  };

  /// Forgets `e`'s record and body, if any, in stats_ and the body index.
  void drop_record(Entry& e);

  std::size_t capacity_;
  /// front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  /// body digest -> the entry keeping that body.
  std::unordered_map<std::size_t, std::list<Entry>::iterator> bodies_;
  CacheStats stats_;  ///< every field but `entries`, which is lru_.size()
};

}  // namespace estima::service
