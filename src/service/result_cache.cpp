#include "service/result_cache.hpp"

#include <utility>

namespace estima::service {

ResultCache::ResultCache(std::size_t capacity, std::chrono::milliseconds ttl)
    : capacity_(capacity == 0 ? 1 : capacity), ttl_(ttl) {}

std::shared_ptr<const core::Prediction> ResultCache::get(std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (expired(*it->second, Clock::now())) {
    // Resident but past its TTL: a miss to normal lookups. No recency
    // refresh — only a put() (the recompute) revives the entry.
    ++stats_.misses;
    ++stats_.expired_misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->value;
}

std::shared_ptr<const core::Prediction> ResultCache::get_if_fresh(
    std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end() || expired(*it->second, Clock::now())) {
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

StaleLookup ResultCache::lookup_stale(std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return {};
  }
  StaleLookup out;
  out.value = it->second->value;
  out.stale = expired(*it->second, Clock::now());
  if (out.stale) {
    ++stats_.stale_hits;
  } else {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  return out;
}

void ResultCache::put(std::uint64_t key,
                      std::shared_ptr<const core::Prediction> value) {
  const auto now = Clock::now();
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    it->second->inserted = now;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, std::move(value), now});
  index_.emplace(key, lru_.begin());
}

bool ResultCache::erase(std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidations;
  return true;
}

CacheStats ResultCache::stats() const {
  CacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

std::vector<SnapshotEntry> ResultCache::entries() const {
  const auto now = Clock::now();
  std::vector<SnapshotEntry> out;
  out.reserve(lru_.size());
  // Back-to-front = LRU first; see the header on why order matters.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if (!expired(*it, now)) out.push_back({it->key, it->value});
  }
  return out;
}

}  // namespace estima::service
