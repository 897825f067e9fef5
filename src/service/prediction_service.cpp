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
      cache_(cfg_.cache_capacity, cfg_.cache_shards, cfg_.cache_ttl_ms) {
  if (base_.deadline != nullptr || base_.trace != nullptr ||
      base_.memo != nullptr || base_.audit != nullptr ||
      base_.engine != nullptr) {
    throw std::invalid_argument(
        "PredictionService: the base context carries only a pool and fit "
        "metrics; deadline, trace, memo and audit are per call");
  }
  if (cfg_.snapshot_every > 0 && cfg_.auto_snapshot_path.empty()) {
    throw std::invalid_argument(
        "PredictionService: snapshot_every requires auto_snapshot_path");
  }
}

std::uint64_t PredictionService::hash_of(
    const core::MeasurementSet& ms) const {
  return campaign_hash(ms, cfg_.prediction);
}

std::shared_ptr<const core::Prediction> PredictionService::compute_or_join(
    std::uint64_t key, const core::MeasurementSet& ms,
    const core::Deadline* deadline, obs::TraceContext* trace,
    CacheDisposition* disposition, core::FitMemo* memo) {
  {
    obs::SpanTimer lookup_span(trace, obs::Stage::kCacheLookup);
    if (auto cached = cache_.get(key)) {
      if (disposition != nullptr) *disposition = CacheDisposition::kHit;
      return cached;
    }
  }

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<InFlight>();
      inflight_.emplace(key, flight);
      owner = true;
    }
  }

  if (!owner) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++inflight_joins_;
    }
    if (flight->error) std::rethrow_exception(flight->error);
    if (disposition != nullptr) *disposition = CacheDisposition::kHit;
    return flight->result;
  }

  // This thread owns the computation. The previous owner (if any) erased
  // its in-flight entry only after publishing to the cache, so a racing
  // completion is visible on this re-check and is never recomputed.
  bool inserted = false;
  if (auto cached = cache_.peek(key)) {
    flight->result = cached;
    if (disposition != nullptr) *disposition = CacheDisposition::kHit;
  } else {
    try {
      auto result = std::make_shared<const core::Prediction>(
          compute(ms, deadline, trace, memo, nullptr));
      cache_.put(key, result);
      flight->result = std::move(result);
      inserted = true;
      if (disposition != nullptr) *disposition = CacheDisposition::kMiss;
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++predictions_computed_;
    } catch (const core::DeadlineExceeded&) {
      flight->error = std::current_exception();
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++predictions_cancelled_;
    } catch (...) {
      flight->error = std::current_exception();
    }
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
  }
  flight->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  // Only after the result is published and joiners released: a triggered
  // snapshot is a disk write that must not sit between a computed answer
  // and the threads waiting on it.
  if (inserted) note_insertion_for_auto_snapshot();
  if (flight->error) std::rethrow_exception(flight->error);
  return flight->result;
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

void PredictionService::note_insertion_for_auto_snapshot() {
  if (cfg_.snapshot_every == 0) return;
  bool trigger = false;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (++insertions_since_snapshot_ >= cfg_.snapshot_every) {
      insertions_since_snapshot_ = 0;
      trigger = true;
    }
  }
  if (!trigger) return;
  // The write races safely against serving (snapshot_to walks the cache
  // one shard lock at a time) and must never fail the prediction whose
  // insertion triggered it.
  try {
    snapshot_to(cfg_.auto_snapshot_path);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++auto_snapshots_;
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++auto_snapshot_failures_;
  }
}

core::Prediction PredictionService::predict_one(
    const core::MeasurementSet& ms, const core::Deadline* deadline,
    obs::TraceContext* trace, CacheDisposition* disposition,
    core::FitMemo* memo) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++campaigns_submitted_;
  }
  return *compute_or_join(hash_of(ms), ms, deadline, trace, disposition,
                          memo);
}

core::Prediction PredictionService::explain(const core::MeasurementSet& ms,
                                            core::PredictionAudit& audit,
                                            const core::Deadline* deadline,
                                            obs::TraceContext* trace) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++explains_served_;
  }
  return compute(ms, deadline, trace, nullptr, &audit);
}

std::shared_ptr<const core::Prediction> PredictionService::cached_or_stale(
    std::uint64_t key, bool* stale) {
  StaleLookup found = cache_.lookup_stale(key);
  if (stale != nullptr) *stale = found.stale;
  return found.value;
}

std::vector<core::Prediction> PredictionService::predict_many(
    Span<const core::MeasurementSet> campaigns,
    const core::Deadline* deadline, obs::TraceContext* trace) {
  const std::size_t n = campaigns.size();
  std::vector<core::Prediction> out;
  out.reserve(n);
  if (n == 0) return out;

  // Hash serially and fold same-hash repeats onto one unit of work.
  struct Unit {
    std::uint64_t key = 0;
    std::size_t input_idx = 0;  ///< first input with this hash
    std::shared_ptr<const core::Prediction> result;
    std::exception_ptr error;
  };
  std::vector<Unit> units;
  std::vector<std::size_t> unit_of(n);
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = hash_of(campaigns[i]);
    auto [it, inserted] = seen.emplace(key, units.size());
    if (inserted) units.push_back(Unit{key, i, nullptr, nullptr});
    unit_of[i] = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    campaigns_submitted_ += n;
    batch_duplicates_folded_ += n - units.size();
  }

  // One campaign per job. Each job writes only its own unit, so the
  // fan-out cannot change results; the nested per-campaign fit fan-out
  // shares the same pool safely (caller-participates parallel_for). Jobs
  // must not throw across the pool boundary — exceptions are parked per
  // unit and rethrown below.
  parallel::parallel_for(base_.pool, units.size(), [&](std::size_t u) {
    try {
      units[u].result = compute_or_join(
          units[u].key, campaigns[units[u].input_idx], deadline, trace);
    } catch (...) {
      units[u].error = std::current_exception();
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
  cache_.for_each_entry(
      [&entries](std::uint64_t key,
                 const std::shared_ptr<const core::Prediction>& value) {
        entries.push_back({key, value});
      });
  return save_snapshot(path, core::config_signature(cfg_.prediction), entries);
}

SnapshotLoadReport PredictionService::restore_from(const std::string& path) {
  // The signature gate runs inside load_snapshot, straight off the
  // checksummed header: a foreign-config snapshot is rejected before a
  // single entry is read.
  SnapshotLoadReport report =
      load_snapshot(path, core::config_signature(cfg_.prediction));
  // for_each_entry exported LRU-first per shard, so replaying through
  // put() in file order restores each shard's recency as well as its
  // contents.
  for (const auto& e : report.entries) cache_.put(e.key, e.prediction);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot_entries_restored_ += report.entries.size();
    // Count both explicitly skipped frames and frames the header promised
    // but a truncated file never delivered.
    std::uint64_t skipped = report.skipped.size();
    const std::size_t seen = report.entries.size() + report.skipped.size();
    if (report.entries_declared > seen) {
      skipped += report.entries_declared - seen;
    }
    snapshot_entries_skipped_ += skipped;
  }
  return report;
}

ServiceStats PredictionService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.campaigns_submitted = campaigns_submitted_;
    s.predictions_computed = predictions_computed_;
    s.batch_duplicates_folded = batch_duplicates_folded_;
    s.inflight_joins = inflight_joins_;
    s.snapshot_entries_restored = snapshot_entries_restored_;
    s.snapshot_entries_skipped = snapshot_entries_skipped_;
    s.auto_snapshots = auto_snapshots_;
    s.auto_snapshot_failures = auto_snapshot_failures_;
    s.predictions_cancelled = predictions_cancelled_;
    s.explains_served = explains_served_;
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace estima::service
