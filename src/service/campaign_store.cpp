#include "service/campaign_store.hpp"

#include <utility>

namespace estima::service {
namespace {

// Append-time compatibility check: a delta extends the SAME campaign, so
// everything that participates in the campaign's identity except the
// points themselves must match exactly. Category order matters here even
// though campaign_hash is order-insensitive: the stored series are
// extended positionally.
void check_delta_compatible(const core::MeasurementSet& base,
                            const core::MeasurementSet& delta) {
  if (delta.num_points() == 0) {
    throw std::invalid_argument("campaign append: no points in delta");
  }
  if (delta.workload != base.workload || delta.machine != base.machine ||
      delta.freq_ghz != base.freq_ghz ||
      delta.dataset_bytes != base.dataset_bytes) {
    throw std::invalid_argument(
        "campaign append: delta metadata differs from campaign");
  }
  if (delta.categories.size() != base.categories.size()) {
    throw std::invalid_argument(
        "campaign append: delta category set differs from campaign");
  }
  for (std::size_t i = 0; i < base.categories.size(); ++i) {
    if (delta.categories[i].name != base.categories[i].name ||
        delta.categories[i].domain != base.categories[i].domain) {
      throw std::invalid_argument(
          "campaign append: delta category set differs from campaign");
    }
  }
  int last = base.cores.back();
  for (int c : delta.cores) {
    if (c <= last) {
      throw std::invalid_argument(
          "campaign append: core counts must be strictly greater than "
          "the campaign's last measured count (duplicates rejected)");
    }
    last = c;
  }
}

}  // namespace

CampaignStore::CampaignStore(PredictionService& service,
                             std::size_t max_campaigns)
    : service_(service),
      max_campaigns_(max_campaigns == 0 ? 1 : max_campaigns) {}

CampaignInfo CampaignStore::info_locked(const std::string& name,
                                        const Campaign& c) const {
  CampaignInfo out;
  out.name = name;
  out.version = c.version;
  out.hash = c.hash;
  out.points = c.ms.num_points();
  out.memo = c.memo.stats();
  return out;
}

std::shared_ptr<CampaignStore::Campaign> CampaignStore::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) throw CampaignNotFound(name);
  return it->second;
}

CampaignInfo CampaignStore::create(const std::string& name,
                                   core::MeasurementSet ms, bool* created) {
  if (name.empty()) {
    throw std::invalid_argument("campaign create: empty name");
  }
  // Reject what predict() would reject, before anything is stored: a
  // resident campaign must always be predictable.
  ms.validate();
  if (ms.num_points() < 3) {
    throw std::invalid_argument(
        "campaign create: need at least 3 measurement points");
  }
  if (ms.categories.empty()) {
    throw std::invalid_argument("campaign create: no stall categories");
  }
  const std::uint64_t hash = service_.hash_of(ms);

  std::shared_ptr<Campaign> replaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(name);
    if (it == map_.end()) {
      if (map_.size() >= max_campaigns_) {
        throw std::invalid_argument("campaign create: store full");
      }
      auto c = std::make_shared<Campaign>();
      c->ms = std::move(ms);
      c->version = 1;
      c->hash = hash;
      map_.emplace(name, c);
      ++stats_.created;
      if (created != nullptr) *created = true;
      return info_locked(name, *c);
    }
    replaced = it->second;
    ++stats_.replaced;
  }
  if (created != nullptr) *created = false;
  // Replace under the campaign's own mutex so in-flight predictions of
  // the old series finish against a consistent state.
  std::uint64_t old_hash;
  CampaignInfo out;
  {
    std::lock_guard<std::mutex> clock(replaced->mu);
    old_hash = replaced->hash;
    replaced->ms = std::move(ms);
    replaced->version += 1;
    replaced->hash = hash;
    // A replacement is a NEW series: memo entries keyed on the old data
    // would never hit again, they would only hold memory.
    replaced->memo.clear();
    out = info_locked(name, *replaced);
  }
  if (old_hash != hash && service_.invalidate(old_hash)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hash_invalidations;
  }
  return out;
}

CampaignInfo CampaignStore::append(const std::string& name,
                                   const core::MeasurementSet& delta) {
  delta.validate();
  auto c = find(name);
  std::uint64_t old_hash;
  CampaignInfo out;
  {
    std::lock_guard<std::mutex> clock(c->mu);
    check_delta_compatible(c->ms, delta);
    old_hash = c->hash;
    for (std::size_t i = 0; i < delta.num_points(); ++i) {
      c->ms.cores.push_back(delta.cores[i]);
      c->ms.time_s.push_back(delta.time_s[i]);
      for (std::size_t k = 0; k < c->ms.categories.size(); ++k) {
        c->ms.categories[k].values.push_back(delta.categories[k].values[i]);
      }
    }
    c->version += 1;
    c->hash = service_.hash_of(c->ms);
    out = info_locked(name, *c);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.appends;
  }
  // Exactly the superseded hash dies; every other cache entry (other
  // campaigns, this campaign's older generations already evicted or
  // never cached) is untouched.
  if (old_hash != out.hash && service_.invalidate(old_hash)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hash_invalidations;
  }
  return out;
}

CachedAnswer CampaignStore::answer(const std::string& name,
                                   const core::Deadline* deadline,
                                   obs::TraceContext* trace,
                                   CacheDisposition* disposition,
                                   CampaignInfo* info) {
  auto c = find(name);
  // The campaign mutex spans the prediction: appends to THIS campaign
  // order with it (an appended point is never half-visible), while other
  // campaigns and the stateless endpoints proceed concurrently.
  std::lock_guard<std::mutex> clock(c->mu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.predictions;
  }
  CachedAnswer out =
      service_.answer(c->hash, c->ms, deadline, trace, disposition, &c->memo);
  if (info != nullptr) *info = info_locked(name, *c);
  return out;
}

core::Prediction CampaignStore::predict(const std::string& name,
                                        const core::Deadline* deadline,
                                        obs::TraceContext* trace,
                                        CacheDisposition* disposition,
                                        CampaignInfo* info) {
  return *answer(name, deadline, trace, disposition, info).prediction;
}

bool CampaignStore::remove(const std::string& name) {
  std::shared_ptr<Campaign> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(name);
    if (it == map_.end()) return false;
    victim = std::move(it->second);
    map_.erase(it);
    ++stats_.deleted;
  }
  std::uint64_t hash;
  {
    std::lock_guard<std::mutex> clock(victim->mu);
    hash = victim->hash;
  }
  if (service_.invalidate(hash)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hash_invalidations;
  }
  return true;
}

CampaignInfo CampaignStore::info(const std::string& name) const {
  auto c = find(name);
  std::lock_guard<std::mutex> clock(c->mu);
  return info_locked(name, *c);
}

CampaignStoreStats CampaignStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CampaignStoreStats s = stats_;
  s.active = map_.size();
  return s;
}

}  // namespace estima::service
