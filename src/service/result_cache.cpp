#include "service/result_cache.hpp"

#include <utility>

namespace estima::service {

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

CachedAnswer ResultCache::get(std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return {};
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return {it->second->value, it->second->record};
}

CachedAnswer ResultCache::get_by_body(std::size_t digest,
                                      std::string_view body,
                                      std::uint64_t* key) {
  auto it = bodies_.find(digest);
  if (it == bodies_.end() || it->second->body != body) return {};
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  *key = it->second->key;
  return {it->second->value, it->second->record};
}

void ResultCache::put(std::uint64_t key,
                      std::shared_ptr<const core::Prediction> value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    drop_record(*it->second);
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    drop_record(lru_.back());
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, std::move(value), nullptr, {}, 0});
  index_.emplace(key, lru_.begin());
}

bool ResultCache::keep_record(std::uint64_t key,
                              const core::Prediction* answer,
                              std::shared_ptr<const std::string> record,
                              std::string body, std::size_t body_digest) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  Entry& e = *it->second;
  if (e.value.get() != answer) return false;
  bool kept = false;
  if (!e.record && record) {
    stats_.record_bytes += record->size();
    e.record = std::move(record);
    kept = true;
  }
  if (!e.record || body.empty() || body == e.body) return kept;
  // The digest's slot is free, or holds this entry's own (different)
  // body; another entry's slot keeps the old body in place.
  const auto [slot, fresh] = bodies_.try_emplace(body_digest, it->second);
  if (!fresh && slot->second != it->second) return kept;
  if (fresh && !e.body.empty()) bodies_.erase(e.body_digest);
  stats_.body_bytes -= e.body.size();
  stats_.body_bytes += body.size();
  e.body = std::move(body);  // frees the replaced body's bytes
  e.body_digest = body_digest;
  return true;
}

bool ResultCache::erase(std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  drop_record(*it->second);
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidations;
  return true;
}

void ResultCache::drop_record(Entry& e) {
  if (e.record) {
    stats_.record_bytes -= e.record->size();
    e.record.reset();
  }
  if (!e.body.empty()) {
    bodies_.erase(e.body_digest);
    stats_.body_bytes -= e.body.size();
    std::string().swap(e.body);  // frees the bytes; clear() would keep them
  }
}

CacheStats ResultCache::stats() const {
  CacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

std::vector<SnapshotEntry> ResultCache::entries() const {
  std::vector<SnapshotEntry> out;
  out.reserve(lru_.size());
  // Back-to-front = LRU first; see the header on why order matters.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    out.push_back({it->key, it->value});
  }
  return out;
}

}  // namespace estima::service
