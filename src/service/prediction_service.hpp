// The prediction-serving layer: a cache-fronted batch engine over the core
// pipeline.
//
// predict_many() turns a batch of measurement campaigns into predictions
// under one immutable PredictionConfig:
//   1. every campaign is named by its campaign_hash;
//   2. repeats within the batch fold onto one computation;
//   3. hits are served from the ResultCache, an exact LRU (an entry a
//      /v1/predict hit was rendered for also keeps that record and the
//      request body that named it, see result_cache.hpp and keep_record);
//   4. misses fan out across the shared parallel::ThreadPool, one campaign
//      per job — the per-campaign fit fan-out keeps working underneath,
//      because parallel_for nests safely;
//   5. a campaign being computed by any other thread is joined, never
//      recomputed (in-flight dedup across concurrent batches).
// Results come back in input order, bit-identical to calling the serial
// predict() on the campaign as it was first seen under its hash. Category
// order is deliberately not part of a campaign's identity (see
// campaign_hash.hpp), so resubmitting the same campaign with its
// categories permuted is served the first-seen ordering's answer — same
// predictions up to floating-point summation order, with
// Prediction::categories in the first-seen order (consumers should match
// categories by name, not position).
//
// Errors: a campaign predict() rejects (std::invalid_argument) is never
// cached; predict_many surfaces the earliest failing input's exception
// after the batch has been driven, so one bad campaign cannot poison the
// cache or block the others from being computed and cached.
//
// Locking: one mutex guards the cache, the in-flight table and the
// counters. A lookup and its in-flight registration are one critical
// section, and an owner's publish (cache insert, in-flight erase, count)
// is another, so every request either hits, joins a flight, or owns a
// fresh one — never a completed computation's lost race. Fits, joiner
// waits, record and body copies and snapshot file writes run outside the
// lock, and stats() is one consistent picture of the service and cache
// counters.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/measurement.hpp"
#include "core/predictor.hpp"
#include "service/result_cache.hpp"
#include "service/snapshot.hpp"

namespace estima::service {

struct ServiceConfig {
  core::PredictionConfig prediction;  ///< shared by every campaign served
  std::size_t cache_capacity = 4096;  ///< answers the LRU holds
};

/// How predict_one sourced its answer, reported for the event log:
/// kHit covers both a cache hit and joining another thread's in-flight
/// computation (either way no fit work ran for this request).
enum class CacheDisposition { kUnknown, kHit, kMiss };

struct ServiceStats {
  std::uint64_t campaigns_submitted = 0;
  std::uint64_t predictions_computed = 0;   ///< actual predict() runs
  std::uint64_t batch_duplicates_folded = 0;  ///< same-hash repeats in a batch
  std::uint64_t inflight_joins = 0;  ///< waits on another thread's compute
  /// Warm-restart accounting, surfaced next to the cache's hit/miss/
  /// eviction counters: entries loaded into the cache by restore_from()
  /// and snapshot frames dropped as damaged or missing across all
  /// restores.
  std::uint64_t snapshot_entries_restored = 0;
  std::uint64_t snapshot_entries_skipped = 0;
  /// Computations that ended in DeadlineExceeded (the client's budget ran
  /// out mid-fit and the pipeline stopped cooperatively).
  std::uint64_t predictions_cancelled = 0;
  /// Audited explain() computations served (always computed fresh; never
  /// cached, never counted as campaigns_submitted).
  std::uint64_t explains_served = 0;
  CacheStats cache;
};

class PredictionService {
 public:
  /// `base` is the execution context every computation starts from: its
  /// pool (borrowed, may be null = serial) fans out both the batch and the
  /// per-campaign fits, and its fit metrics see every prediction. The
  /// service adds the per-call deadline, trace, memo and audit itself and
  /// always serves from the default (batched, memoized) fit pipeline, so
  /// `base` carries nothing else. Throws std::invalid_argument when it
  /// does.
  explicit PredictionService(ServiceConfig cfg, core::ExecContext base = {});

  /// Campaign key under this service's config.
  std::uint64_t hash_of(const core::MeasurementSet& ms) const;

  /// Single-campaign entry: cache-fronted, in-flight-deduped predict()
  /// of `ms`, whose key the caller already has (`key` must be
  /// hash_of(ms)). Returns the cached object itself, with its kept
  /// record when a hit has kept one (see result_cache.hpp); a miss or a
  /// join returns no record.
  /// With a deadline, throws core::DeadlineExceeded once it expires (the
  /// fit loop polls it cooperatively); a cache hit is served regardless —
  /// it costs nothing. Joining a computation owned by another request
  /// surfaces the owner's outcome, including its DeadlineExceeded.
  /// With a trace, records `cache.lookup` here and the fit.* spans inside
  /// predict(); like the deadline, the trace cannot change the answer.
  /// `disposition`, when non-null, reports where the answer came from
  /// (cache/join = kHit, fresh computation = kMiss); left kUnknown when
  /// the request throws instead of answering.
  /// `memo`, when non-null, is attached to the computation (cache hits
  /// and joins never touch it): the streaming-campaign path passes the
  /// campaign's persistent FitMemo so an append re-predicts
  /// incrementally. The memo cannot change the answer (see predictor.hpp)
  /// so memoized and cold computations share one cache entry.
  CachedAnswer answer(std::uint64_t key, const core::MeasurementSet& ms,
                      const core::Deadline* deadline = nullptr,
                      obs::TraceContext* trace = nullptr,
                      CacheDisposition* disposition = nullptr,
                      core::FitMemo* memo = nullptr);

  /// answer() under hash_of(ms), by value.
  core::Prediction predict_one(const core::MeasurementSet& ms,
                               const core::Deadline* deadline = nullptr,
                               obs::TraceContext* trace = nullptr,
                               CacheDisposition* disposition = nullptr,
                               core::FitMemo* memo = nullptr);

  /// The event loop's whole step, for callers that must not parse,
  /// compute or wait: the cached answer whose entry keeps a body
  /// byte-equal to `body` (`digest` is std::hash<std::string_view>{}(body)),
  /// with its kept record and the entry's key in `*key`, counted as
  /// answer() counts a hit (one submitted campaign, one cache hit).
  /// Returns nulls and counts nothing when no kept body matches — the
  /// caller then hands the request to answer(), which counts it once.
  CachedAnswer lookup_body(std::size_t digest, std::string_view body,
                           std::uint64_t* key);

  /// The keep step, after a hit `hit` (from answer(), under `key`) was
  /// rendered into `record`: keeps an exact-size copy of `record` beside
  /// the entry when `hit` came without one (the first keep wins), and of
  /// `body`, the request body that named `key`, under `body_digest`
  /// (replacing a different kept body; see result_cache.hpp) — if the
  /// entry still holds `hit.prediction` itself. Returns whether it kept
  /// either. The copies are made outside the lock; the check and the
  /// install are one critical section. Counts nothing.
  bool keep_record(std::uint64_t key, const CachedAnswer& hit,
                   std::string_view record, std::string_view body,
                   std::size_t body_digest);

  /// Audited prediction for POST /v1/explain: runs the full pipeline
  /// fresh with `audit` attached, bypassing the cache and the in-flight
  /// table — the bit-identity contract guarantees the answer equals the
  /// cached one, and an audit only exists for fits that actually ran.
  /// The result is deliberately not cached: explain is a diagnostic
  /// endpoint and must not evict serving traffic.
  core::Prediction explain(const core::MeasurementSet& ms,
                           core::PredictionAudit& audit,
                           const core::Deadline* deadline = nullptr,
                           obs::TraceContext* trace = nullptr);

  /// Batch entry: results in input order, bit-identical to a serial
  /// predict() loop over the same campaigns. One deadline covers the
  /// whole batch; one trace too — the batch's lookups are one
  /// cache.lookup span, and units run concurrently, so its fit.* cells
  /// aggregate overlapping per-unit work.
  std::vector<core::Prediction> predict_many(
      const std::vector<core::MeasurementSet>& campaigns,
      const core::Deadline* deadline = nullptr,
      obs::TraceContext* trace = nullptr);

  /// Drops `key` from the result cache; returns true when an entry died.
  /// Streaming appends call this with the campaign's superseded hash so
  /// exactly the superseded answer is invalidated — the new hash's entry
  /// is computed on the next lookup.
  bool invalidate(std::uint64_t key);

  /// Spills the current ResultCache to a v1 snapshot at `path` (atomic
  /// write-then-rename), tagged with this service's config signature.
  /// Safe to call while other threads serve predict_many: the entries are
  /// copied under the service lock and written outside it, so the
  /// snapshot is one consistent picture of completed answers — every
  /// entry it contains is a real, fully computed prediction.
  SnapshotWriteReport snapshot_to(const std::string& path) const;

  /// Warms the cache from a snapshot written by a service with the same
  /// prediction config. Entries land in the cache as if just computed
  /// (preserving recency); damaged entries are skipped, counted
  /// in stats().snapshot_entries_skipped and detailed in the returned
  /// report. Throws std::runtime_error when the file is unusable as a
  /// whole — unreadable, wrong version, or written under a different
  /// config signature (restoring those answers would break the
  /// one-hash-one-answer invariant).
  SnapshotLoadReport restore_from(const std::string& path);

  ServiceStats stats() const;
  const ServiceConfig& config() const { return cfg_; }

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const core::Prediction> result;
    std::exception_ptr error;
  };

  /// What one key's lookup found: a cache hit, or the flight the caller
  /// owns (and must settle by computing) or joins.
  struct Claim {
    CachedAnswer hit;
    std::shared_ptr<InFlight> flight;
    bool owner = false;
  };

  /// The lookup and the in-flight registration, as one step under mu_
  /// (which the caller holds).
  Claim claim_locked(std::uint64_t key);

  /// Settles a claim that missed, outside mu_. The owner computes, then
  /// publishes (cache insert, in-flight erase, count) under mu_ and
  /// releases its joiners; a joiner waits for the owner's outcome. Throws
  /// what predict() threw; errors reach joiners but are never cached.
  std::shared_ptr<const core::Prediction> settle(
      std::uint64_t key, const Claim& claim, const core::MeasurementSet& ms,
      const core::Deadline* deadline, obs::TraceContext* trace,
      CacheDisposition* disposition = nullptr,
      core::FitMemo* memo = nullptr);

  /// The one place a computation's context is assembled: the base context
  /// plus this call's deadline, trace, memo and audit.
  core::Prediction compute(const core::MeasurementSet& ms,
                           const core::Deadline* deadline,
                           obs::TraceContext* trace, core::FitMemo* memo,
                           core::PredictionAudit* audit) const;

  ServiceConfig cfg_;
  core::ExecContext base_;
  /// config_signature(cfg_.prediction), computed once: every campaign
  /// key and every snapshot header carries it.
  const std::uint64_t config_signature_;

  /// Guards everything below. Never held across a fit, a joiner's wait or
  /// a file write.
  mutable std::mutex mu_;
  ResultCache cache_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
  ServiceStats stats_;  ///< every field but `cache`, which cache_ keeps
};

}  // namespace estima::service
