// The prediction-serving layer: a cache-fronted batch engine over the core
// pipeline.
//
// predict_many() turns a batch of measurement campaigns into predictions
// under one immutable PredictionConfig:
//   1. every campaign is named by its campaign_hash;
//   2. repeats within the batch fold onto one computation;
//   3. hits are served from the sharded ResultCache;
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
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/measurement.hpp"
#include "core/predictor.hpp"
#include "service/result_cache.hpp"
#include "service/snapshot.hpp"

namespace estima::service {

/// Minimal C++17 stand-in for std::span<const T>: lets the serving API
/// accept campaigns from any contiguous container without copying.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* data, std::size_t size) : data_(data), size_(size) {}
  Span(const std::vector<std::remove_const_t<T>>& v)
      : data_(v.data()), size_(v.size()) {}
  template <std::size_t N>
  Span(const T (&arr)[N]) : data_(arr), size_(N) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

struct ServiceConfig {
  core::PredictionConfig prediction;  ///< shared by every campaign served
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  /// TTL for cached predictions in milliseconds; 0 = never expire (the
  /// default — predictions are pure functions of the campaign, so expiry
  /// only matters to deployments that want bounded staleness). Expired
  /// entries read as misses but stay resident for cached_or_stale(), the
  /// serve-stale degradation path.
  std::uint64_t cache_ttl_ms = 0;
  /// When > 0, every K-th newly *computed* prediction inserted into the
  /// cache triggers exactly one automatic snapshot_to(auto_snapshot_path)
  /// (cache hits, joins and restores do not count). The snapshot runs on
  /// the inserting thread, racing safely against concurrent serving; a
  /// failed write is counted in stats, never thrown at the client whose
  /// prediction triggered it. Requires a non-empty auto_snapshot_path.
  std::size_t snapshot_every = 0;
  std::string auto_snapshot_path;
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
  /// Periodic persistence (ServiceConfig::snapshot_every) accounting:
  /// snapshots actually written, and trigger points whose write failed.
  std::uint64_t auto_snapshots = 0;
  std::uint64_t auto_snapshot_failures = 0;
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
  /// does, or when snapshot_every > 0 without an auto_snapshot_path.
  explicit PredictionService(ServiceConfig cfg, core::ExecContext base = {});

  /// Campaign key under this service's config.
  std::uint64_t hash_of(const core::MeasurementSet& ms) const;

  /// Single-campaign entry: cache-fronted, in-flight-deduped predict().
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
  core::Prediction predict_one(const core::MeasurementSet& ms,
                               const core::Deadline* deadline = nullptr,
                               obs::TraceContext* trace = nullptr,
                               CacheDisposition* disposition = nullptr,
                               core::FitMemo* memo = nullptr);

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
  /// whole batch; one trace too — units run concurrently, so its
  /// cache.lookup / fit.* cells aggregate overlapping per-unit work.
  std::vector<core::Prediction> predict_many(
      Span<const core::MeasurementSet> campaigns,
      const core::Deadline* deadline = nullptr,
      obs::TraceContext* trace = nullptr);

  /// Degraded-mode lookup for the serve-stale path: whatever the cache
  /// holds for `key`, even past its TTL (*stale set accordingly); null
  /// when nothing is resident. Never computes.
  std::shared_ptr<const core::Prediction> cached_or_stale(std::uint64_t key,
                                                          bool* stale);

  /// Drops `key` from the result cache (resident or expired); returns
  /// true when an entry died. Streaming appends call this with the
  /// campaign's superseded hash so exactly the stale answer is
  /// invalidated — the new hash's entry is computed on the next lookup.
  bool invalidate(std::uint64_t key) { return cache_.erase(key); }

  /// Spills the current ResultCache to a v1 snapshot at `path` (atomic
  /// write-then-rename), tagged with this service's config signature.
  /// Safe to call while other threads serve predict_many: the export
  /// walks the cache one shard lock at a time (for_each_entry), so the
  /// snapshot is a per-shard-consistent picture of completed answers —
  /// every entry it contains is a real, fully computed prediction.
  SnapshotWriteReport snapshot_to(const std::string& path) const;

  /// Warms the cache from a snapshot written by a service with the same
  /// prediction config. Entries land in the cache as if just computed
  /// (preserving per-shard recency); damaged entries are skipped, counted
  /// in stats().snapshot_entries_skipped and detailed in the returned
  /// report. Throws std::runtime_error when the file is unusable as a
  /// whole — unreadable, wrong version, or written under a different
  /// config signature (restoring those answers would break the
  /// one-hash-one-answer invariant).
  SnapshotLoadReport restore_from(const std::string& path);

  ServiceStats stats() const;
  const ServiceConfig& config() const { return cfg_; }
  const ResultCache& cache() const { return cache_; }

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const core::Prediction> result;
    std::exception_ptr error;
  };

  /// Serves `key` from the cache, joins a computation already in flight on
  /// another thread, or computes (and caches) it here. Throws what
  /// predict() threw; errors are published to joiners but never cached.
  std::shared_ptr<const core::Prediction> compute_or_join(
      std::uint64_t key, const core::MeasurementSet& ms,
      const core::Deadline* deadline, obs::TraceContext* trace,
      CacheDisposition* disposition = nullptr,
      core::FitMemo* memo = nullptr);

  /// The one place a computation's context is assembled: the base context
  /// plus this call's deadline, trace, memo and audit.
  core::Prediction compute(const core::MeasurementSet& ms,
                           const core::Deadline* deadline,
                           obs::TraceContext* trace, core::FitMemo* memo,
                           core::PredictionAudit* audit) const;

  /// Counts one computed insertion toward snapshot_every and writes the
  /// automatic snapshot when this insertion is the K-th. Exactly one
  /// thread snapshots per K insertions: the decision is taken under the
  /// stats lock, the write happens outside it.
  void note_insertion_for_auto_snapshot();

  ServiceConfig cfg_;
  core::ExecContext base_;
  ResultCache cache_;

  std::mutex inflight_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;

  mutable std::mutex stats_mu_;
  std::uint64_t campaigns_submitted_ = 0;
  std::uint64_t predictions_computed_ = 0;
  std::uint64_t batch_duplicates_folded_ = 0;
  std::uint64_t inflight_joins_ = 0;
  std::uint64_t snapshot_entries_restored_ = 0;
  std::uint64_t snapshot_entries_skipped_ = 0;
  std::uint64_t insertions_since_snapshot_ = 0;
  std::uint64_t auto_snapshots_ = 0;
  std::uint64_t auto_snapshot_failures_ = 0;
  std::uint64_t predictions_cancelled_ = 0;
  std::uint64_t explains_served_ = 0;
};

}  // namespace estima::service
