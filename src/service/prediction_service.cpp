#include "service/prediction_service.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/campaign_hash.hpp"

namespace estima::service {

PredictionService::PredictionService(ServiceConfig cfg, core::ExecContext base)
    : cfg_(std::move(cfg)),
      base_(base),
      config_signature_(core::config_signature(cfg_.prediction)),
      cache_(cfg_.cache_capacity) {
  if (base_.deadline != nullptr || base_.trace != nullptr ||
      base_.memo != nullptr || base_.audit != nullptr ||
      base_.engine != nullptr) {
    throw std::invalid_argument(
        "PredictionService: the base context carries only a pool and fit "
        "metrics; deadline, trace, memo and audit are per call");
  }
}

std::uint64_t PredictionService::hash_of(
    const core::MeasurementSet& ms) const {
  return campaign_hash(ms, config_signature_);
}

PredictionService::Claim PredictionService::claim_locked(std::uint64_t key) {
  // With the owner's publish below also one critical section, a key is
  // always either cached, in flight, or neither, so a miss here can never
  // race a completion.
  Claim claim;
  claim.hit = cache_.get(key);
  if (claim.hit.prediction) return claim;
  auto [it, inserted] = inflight_.try_emplace(key);
  if (inserted) it->second = std::make_shared<InFlight>();
  claim.flight = it->second;
  claim.owner = inserted;
  return claim;
}

std::shared_ptr<const core::Prediction> PredictionService::settle(
    std::uint64_t key, const Claim& claim, const core::MeasurementSet& ms,
    const core::Deadline* deadline, obs::TraceContext* trace,
    CacheDisposition* disposition, core::FitMemo* memo) {
  InFlight& flight = *claim.flight;
  if (!claim.owner) {
    {
      std::unique_lock<std::mutex> lock(flight.mu);
      flight.cv.wait(lock, [&] { return flight.done; });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.inflight_joins;
    }
    if (flight.error) std::rethrow_exception(flight.error);
    if (disposition != nullptr) *disposition = CacheDisposition::kHit;
    return flight.result;
  }

  bool cancelled = false;
  try {
    flight.result = std::make_shared<const core::Prediction>(
        compute(ms, deadline, trace, memo, nullptr));
    if (disposition != nullptr) *disposition = CacheDisposition::kMiss;
  } catch (const core::DeadlineExceeded&) {
    flight.error = std::current_exception();
    cancelled = true;
  } catch (...) {
    flight.error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flight.result) {
      cache_.put(key, flight.result);
      ++stats_.predictions_computed;
    } else if (cancelled) {
      ++stats_.predictions_cancelled;
    }
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight.mu);
    flight.done = true;
  }
  flight.cv.notify_all();
  if (flight.error) std::rethrow_exception(flight.error);
  return flight.result;
}

core::Prediction PredictionService::compute(
    const core::MeasurementSet& ms, const core::Deadline* deadline,
    obs::TraceContext* trace, core::FitMemo* memo,
    core::PredictionAudit* audit) const {
  core::ExecContext ctx = base_;
  ctx.deadline = deadline;
  ctx.trace = trace;
  ctx.memo = memo;
  ctx.audit = audit;
  return core::predict(ms, cfg_.prediction, ctx);
}

CachedAnswer PredictionService::answer(std::uint64_t key,
                                       const core::MeasurementSet& ms,
                                       const core::Deadline* deadline,
                                       obs::TraceContext* trace,
                                       CacheDisposition* disposition,
                                       core::FitMemo* memo) {
  Claim claim;
  {
    obs::SpanTimer lookup_span(trace, obs::Stage::kCacheLookup);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.campaigns_submitted;
    claim = claim_locked(key);
  }
  if (claim.hit.prediction) {
    if (disposition != nullptr) *disposition = CacheDisposition::kHit;
    return claim.hit;
  }
  return {settle(key, claim, ms, deadline, trace, disposition, memo),
          nullptr};
}

core::Prediction PredictionService::predict_one(
    const core::MeasurementSet& ms, const core::Deadline* deadline,
    obs::TraceContext* trace, CacheDisposition* disposition,
    core::FitMemo* memo) {
  return *answer(hash_of(ms), ms, deadline, trace, disposition, memo)
              .prediction;
}

CachedAnswer PredictionService::lookup_body(std::size_t digest,
                                            std::string_view body,
                                            std::uint64_t* key) {
  std::lock_guard<std::mutex> lock(mu_);
  CachedAnswer hit = cache_.get_by_body(digest, body, key);
  if (hit.prediction) ++stats_.campaigns_submitted;
  return hit;
}

bool PredictionService::keep_record(std::uint64_t key,
                                    const CachedAnswer& hit,
                                    std::string_view record,
                                    std::string_view body,
                                    std::size_t body_digest) {
  // Constructed from (data, size), so the copies hold exactly the bytes,
  // not the renderer's upper-bound buffer. A hit that came with a record
  // copies none: the entry's first keep already won.
  std::shared_ptr<const std::string> kept;
  if (!hit.record) {
    kept = std::make_shared<const std::string>(record.data(), record.size());
  }
  std::string kept_body(body.data(), body.size());
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.keep_record(key, hit.prediction.get(), std::move(kept),
                            std::move(kept_body), body_digest);
}

core::Prediction PredictionService::explain(const core::MeasurementSet& ms,
                                            core::PredictionAudit& audit,
                                            const core::Deadline* deadline,
                                            obs::TraceContext* trace) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.explains_served;
  }
  return compute(ms, deadline, trace, nullptr, &audit);
}

bool PredictionService::invalidate(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.erase(key);
}

std::vector<core::Prediction> PredictionService::predict_many(
    const std::vector<core::MeasurementSet>& campaigns,
    const core::Deadline* deadline, obs::TraceContext* trace) {
  const std::size_t n = campaigns.size();
  std::vector<core::Prediction> out;
  out.reserve(n);
  if (n == 0) return out;

  // Hash serially and fold same-hash repeats onto one unit of work.
  struct Unit {
    std::uint64_t key = 0;
    std::size_t input_idx = 0;  ///< first input with this hash
    Claim claim;
    std::shared_ptr<const core::Prediction> result;
    std::exception_ptr error;
  };
  std::vector<Unit> units;
  std::vector<std::size_t> unit_of(n);
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = hash_of(campaigns[i]);
    auto [it, inserted] = seen.emplace(key, units.size());
    if (inserted) units.push_back(Unit{key, i, {}, nullptr, nullptr});
    unit_of[i] = it->second;
  }
  // One critical section looks up every unit and registers its flight;
  // nothing between it and the fan-out may throw, or a registered flight
  // would never be settled.
  std::vector<Unit*> pending;
  pending.reserve(units.size());
  {
    obs::SpanTimer lookup_span(trace, obs::Stage::kCacheLookup);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.campaigns_submitted += n;
    stats_.batch_duplicates_folded += n - units.size();
    for (Unit& u : units) {
      u.claim = claim_locked(u.key);
      u.result = u.claim.hit.prediction;
    }
  }

  // Misses fan out one campaign per job; each job writes only its own
  // unit, so the fan-out cannot change results, and the nested fit
  // fan-out shares the same pool safely (caller-participates
  // parallel_for). A join waits only on a flight claimed before this
  // batch's claim, so waits cannot form a cycle; owned flights still go
  // first (parallel_for hands out indices in order), so a flight other
  // requests may be waiting on never queues behind this batch's joins.
  // Jobs must not throw across the pool boundary; exceptions are parked
  // per unit and rethrown below.
  for (Unit& u : units) {
    if (!u.result && u.claim.owner) pending.push_back(&u);
  }
  for (Unit& u : units) {
    if (!u.result && !u.claim.owner) pending.push_back(&u);
  }
  parallel::parallel_for(base_.pool, pending.size(), [&](std::size_t i) {
    Unit& u = *pending[i];
    try {
      u.result = settle(u.key, u.claim, campaigns[u.input_idx], deadline,
                        trace);
    } catch (...) {
      u.error = std::current_exception();
    }
  });

  // Assemble in input order; the earliest failing input wins, matching
  // where a serial predict() loop would have stopped.
  for (std::size_t i = 0; i < n; ++i) {
    const Unit& unit = units[unit_of[i]];
    if (unit.error) std::rethrow_exception(unit.error);
    out.push_back(*unit.result);
  }
  return out;
}

SnapshotWriteReport PredictionService::snapshot_to(
    const std::string& path) const {
  std::vector<SnapshotEntry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries = cache_.entries();
  }
  return save_snapshot(path, config_signature_, entries);
}

SnapshotLoadReport PredictionService::restore_from(const std::string& path) {
  // The signature gate runs inside load_snapshot, straight off the
  // checksummed header: a foreign-config snapshot is rejected before a
  // single entry is read.
  SnapshotLoadReport report =
      load_snapshot(path, config_signature_);
  // Count both explicitly skipped frames and frames the header promised
  // but a truncated file never delivered.
  std::uint64_t skipped = report.skipped.size();
  const std::size_t seen = report.entries.size() + report.skipped.size();
  if (report.entries_declared > seen) skipped += report.entries_declared - seen;
  std::lock_guard<std::mutex> lock(mu_);
  // entries() exported LRU first, so replaying through put() in file
  // order restores the recency as well as the contents.
  for (const auto& e : report.entries) cache_.put(e.key, e.prediction);
  stats_.snapshot_entries_restored += report.entries.size();
  stats_.snapshot_entries_skipped += skipped;
  return report;
}

ServiceStats PredictionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

}  // namespace estima::service
