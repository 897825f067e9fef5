// Streaming-campaign suite: the FitMemo identity contract, the result
// cache's point invalidation the streaming path leans on, and the
// CampaignStore lifecycle itself.
//
// The load-bearing test is the golden one: a prediction computed with a
// FitMemo attached — cold, warm, and after appends — must serialize
// byte-identically (write_prediction) to a cold predict() of the same
// series, across {scalar oracle, library engine} x {serial, pooled}.
// Everything
// the service layer does with campaigns (sharing one cache entry between
// memoized and cold computations, invalidating exactly the superseded
// hash) rests on that identity.

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/extrapolator.hpp"
#include "core/fit_memo.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "oracle/scalar_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "service/campaign_store.hpp"
#include "service/prediction_service.hpp"
#include "service/result_cache.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::service {
namespace {

using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

core::MeasurementSet campaign(int seed, int points = 12) {
  SyntheticSpec spec;
  spec.mem_rate = 0.25 + 0.03 * seed;
  spec.serial_frac = 0.005 + 0.002 * seed;
  spec.stm_rate = seed % 2 ? 1e-4 : 0.0;
  spec.noise = 0.02;
  return make_synthetic(spec, counts_up_to(points),
                        ("campaign-" + std::to_string(seed)).c_str());
}

core::PredictionConfig serving_config() {
  core::PredictionConfig cfg;
  cfg.target_cores = core::cores_up_to(48);
  return cfg;
}

/// Full round-trip serialization: string equality == byte identity of
/// every value write_prediction emits (max_digits10 doubles included).
std::string serialized(const core::Prediction& p) {
  std::ostringstream os;
  core::write_prediction(os, p);
  return os.str();
}

/// The points of `full` from index `from` on, as a standalone delta
/// carrying the same metadata and categories — what a client POSTs to
/// /v1/campaigns/{name}/points.
core::MeasurementSet tail(const core::MeasurementSet& full,
                          std::size_t from) {
  core::MeasurementSet d;
  d.workload = full.workload;
  d.machine = full.machine;
  d.freq_ghz = full.freq_ghz;
  d.dataset_bytes = full.dataset_bytes;
  d.cores.assign(full.cores.begin() + from, full.cores.end());
  d.time_s.assign(full.time_s.begin() + from, full.time_s.end());
  for (const auto& c : full.categories) {
    d.categories.push_back(
        {c.name, c.domain,
         std::vector<double>(c.values.begin() + from, c.values.end())});
  }
  return d;
}

std::shared_ptr<const core::Prediction> dummy_value() {
  return std::make_shared<const core::Prediction>();
}

// ---------------------------------------------------------------------------
// FitMemo unit behavior
// ---------------------------------------------------------------------------

TEST(FitMemo, KeyDigestsEveryInputDimension) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  const double ys[] = {1.0, 0.6, 0.45, 0.4};
  core::FitOptions opts;
  const auto digest = [&xs](core::KernelType type, const double* y,
                            std::size_t prefix, const core::FitOptions& o) {
    return core::FitMemo::key_of(type, xs, y, prefix, o).digest;
  };

  const std::uint64_t k = digest(core::KernelType::kRat22, ys, 4, opts);
  // Deterministic.
  EXPECT_EQ(digest(core::KernelType::kRat22, ys, 4, opts), k);
  // Kernel, prefix length, and options all participate.
  EXPECT_NE(digest(core::KernelType::kRat23, ys, 4, opts), k);
  EXPECT_NE(digest(core::KernelType::kRat22, ys, 3, opts), k);
  core::FitOptions ridge = opts;
  ridge.ridge_lambda += 1e-6;
  EXPECT_NE(digest(core::KernelType::kRat22, ys, 4, ridge), k);
  // Data participates by RAW BITS: -0.0 != 0.0 even though they compare
  // equal as doubles. (Replaying a fit against a not-bit-equal input
  // would silently break the byte-identity contract.)
  double ys_zero[] = {0.0, 0.6, 0.45, 0.4};
  double ys_negzero[] = {-0.0, 0.6, 0.45, 0.4};
  EXPECT_NE(digest(core::KernelType::kRat22, ys_zero, 4, opts),
            digest(core::KernelType::kRat22, ys_negzero, 4, opts));
  // Points past the prefix are NOT part of the key: an append that only
  // adds higher core counts must leave old prefixes' keys untouched.
  double ys_ext[] = {1.0, 0.6, 0.45, 999.0};
  EXPECT_EQ(digest(core::KernelType::kRat22, ys_ext, 3, opts),
            digest(core::KernelType::kRat22, ys, 3, opts));
  // The key carries the kernel and prefix the record header is checked
  // against.
  const core::FitMemo::Key key =
      core::FitMemo::key_of(core::KernelType::kRat23, xs, ys, 3, opts);
  EXPECT_EQ(key.kernel, core::KernelType::kRat23);
  EXPECT_EQ(key.prefix, 3u);
}

TEST(FitMemo, LookupInsertAndStats) {
  core::FitMemo memo;
  const core::FitMemo::Key key{42, 4, core::KernelType::kRat22};
  core::FitMemoEntry out;
  EXPECT_FALSE(memo.lookup(key, &out));

  core::FitMemoEntry in;
  in.fn = std::nullopt;  // a failed fit is as memoizable as a success
  memo.insert(key, in);
  EXPECT_TRUE(memo.lookup(key, &out));
  EXPECT_FALSE(out.fn.has_value());

  const std::uint64_t empty_bytes = core::FitMemo{}.stats().bytes;
  const auto s = memo.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, empty_bytes);

  // clear() drops the entries and frees their storage (a replaced
  // campaign is a new series) but keeps the cumulative hit/miss
  // accounting.
  memo.clear();
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().bytes, empty_bytes);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// Bit-for-bit equality of two memo entries: NaN payloads and the sign of
/// zero included, which operator== on doubles cannot see.
void expect_same_bits(const core::FitMemoEntry& a,
                      const core::FitMemoEntry& b) {
  ASSERT_EQ(a.fn.has_value(), b.fn.has_value());
  if (a.fn) {
    EXPECT_EQ(a.fn->type, b.fn->type);
    EXPECT_EQ(bits_of(a.fn->y_scale), bits_of(b.fn->y_scale));
    ASSERT_EQ(a.fn->params.size(), b.fn->params.size());
    for (std::size_t i = 0; i < a.fn->params.size(); ++i) {
      EXPECT_EQ(bits_of(a.fn->params[i]), bits_of(b.fn->params[i])) << i;
    }
  }
  EXPECT_EQ(a.diag.path, b.diag.path);
  EXPECT_EQ(a.diag.solved, b.diag.solved);
  ASSERT_EQ(a.diag.starts.size(), b.diag.starts.size());
  for (std::size_t i = 0; i < a.diag.starts.size(); ++i) {
    const auto& x = a.diag.starts[i];
    const auto& y = b.diag.starts[i];
    EXPECT_EQ(bits_of(x.rmse), bits_of(y.rmse)) << i;
    EXPECT_EQ(x.iterations, y.iterations) << i;
    EXPECT_EQ(x.model_evals, y.model_evals) << i;
    EXPECT_EQ(x.term, y.term) << i;
  }
}

TEST(FitMemo, PackedRecordsRoundTripEveryBit) {
  using Path = core::FitDiag::Path;
  using Term = numeric::LevMarTermination;
  const double nan_payload = from_bits(0x7FF0'0000'0000'0001ull);  // sNaN
  const double neg_nan_payload = from_bits(0xFFF8'0000'DEAD'BEEFull);
  const double inf = std::numeric_limits<double>::infinity();
  const Term all_terms[] = {Term::kNone,        Term::kConverged,
                            Term::kMaxIterations, Term::kNoProgress,
                            Term::kCholeskyFail,  Term::kNudgeExhausted,
                            Term::kNonFinite};
  const std::size_t evals[] = {SIZE_MAX, 0, 127, 128, 1u << 21,
                               SIZE_MAX - 1, 300};
  const int iterations[] = {INT_MAX, 0, INT_MIN, -1, 64, 1, 127};

  std::vector<core::FitMemoEntry> entries;
  // Nonlinear fit, more than three starts: every termination, extreme
  // counters, NaN-payload / -0.0 / +inf rmse, -0.0 and NaN params.
  {
    core::FitMemoEntry e;
    e.fn = core::FittedFunction{
        core::KernelType::kRat33,
        {-0.0, nan_payload, neg_nan_payload, 1.5, -inf, 5e-324, 0.0},
        from_bits(0x8000'0000'0000'0000ull)};
    e.diag.path = Path::kNonlinear;
    e.diag.solved = true;
    const double rmses[] = {nan_payload, -0.0, inf, neg_nan_payload,
                            0.125, -inf, 1e300};
    for (std::size_t i = 0; i < 7; ++i) {
      e.diag.starts.push_back({rmses[i], iterations[i], evals[i],
                               all_terms[i]});
    }
    entries.push_back(e);
  }
  // A nullopt fit that still ran LM starts.
  {
    core::FitMemoEntry e;
    e.diag.path = Path::kNonlinear;
    e.diag.solved = false;
    e.diag.starts.push_back({inf, INT_MAX, SIZE_MAX, Term::kNonFinite});
    e.diag.starts.push_back({nan_payload, 0, 0, Term::kNudgeExhausted});
    entries.push_back(e);
  }
  // Zero starts on every other path, with and without a fit.
  {
    core::FitMemoEntry e;
    e.fn = core::FittedFunction{core::KernelType::kPoly25,
                                {1.0, -0.0, nan_payload, 2.0}, 3.5};
    e.diag.path = Path::kLinear;
    e.diag.solved = true;
    entries.push_back(e);
  }
  {
    core::FitMemoEntry e;
    e.diag.path = Path::kGuard;
    entries.push_back(e);
  }
  {
    core::FitMemoEntry e;
    e.fn = core::FittedFunction{core::KernelType::kExpRat, {0.0, 0.0, 0.0},
                                neg_nan_payload};
    e.diag.path = Path::kTrivial;
    e.diag.solved = true;
    entries.push_back(e);
  }
  // One fit of every kernel, with an empty params vector on one of them.
  for (const core::KernelType t : core::kAllKernels) {
    core::FitMemoEntry e;
    e.fn = core::FittedFunction{
        t, std::vector<double>(core::kernel_param_count(t), -0.0), 1.0};
    e.diag.path = Path::kNonlinear;
    e.diag.solved = true;
    e.diag.starts.push_back({0.5, 3, 40, Term::kConverged});
    entries.push_back(e);
  }
  entries.back().fn->params.clear();

  // Half go in one at a time, the rest as one batch; each entry sits
  // under its own kernel (its fit's, when it has one) and prefix.
  core::FitMemo memo;
  std::vector<core::FitMemo::Key> keys;
  std::vector<core::FitMemo::Fresh> batch;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::KernelType kernel =
        entries[i].fn ? entries[i].fn->type : core::KernelType::kRat23;
    keys.push_back({0x9E37'79B9'7F4A'7C15ull * (i + 1), 200 + i, kernel});
    if (i % 2 == 0) {
      memo.insert(keys[i], entries[i]);
    } else {
      batch.push_back({keys[i], &entries[i].fn, &entries[i].diag});
    }
  }
  memo.insert(batch);
  ASSERT_EQ(memo.stats().entries, entries.size());

  for (std::size_t i = 0; i < entries.size(); ++i) {
    SCOPED_TRACE(i);
    core::FitMemoEntry out;
    // A reused output entry must come back exactly too.
    out.fn = core::FittedFunction{core::KernelType::kRat22, {9.0}, 9.0};
    out.diag.starts.resize(9);
    ASSERT_TRUE(memo.lookup(keys[i], &out));
    expect_same_bits(out, entries[i]);
  }
}

TEST(FitMemo, DigestMatchUnderAnotherKernelOrPrefixIsAMiss) {
  core::FitMemo memo;
  core::FitMemoEntry in;
  in.fn = core::FittedFunction{core::KernelType::kRat22,
                               {1.0, 2.0, 3.0, 4.0, 5.0}, 1.0};
  memo.insert({7, 4, core::KernelType::kRat22}, in);

  core::FitMemoEntry out;
  EXPECT_FALSE(memo.lookup({7, 5, core::KernelType::kRat22}, &out));
  EXPECT_FALSE(memo.lookup({7, 4, core::KernelType::kRat23}, &out));
  EXPECT_FALSE(out.fn.has_value());  // a miss leaves *out untouched
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);

  // The colliding job is never filed: its digest is taken.
  memo.insert({7, 5, core::KernelType::kRat22}, core::FitMemoEntry{});
  EXPECT_EQ(memo.stats().entries, 1u);
  EXPECT_FALSE(memo.lookup({7, 5, core::KernelType::kRat22}, &out));
  ASSERT_TRUE(memo.lookup({7, 4, core::KernelType::kRat22}, &out));
  expect_same_bits(out, in);
}

TEST(FitMemo, InsertUnderAResidentKeyAppendsNothing) {
  core::FitMemo memo;
  const core::FitMemo::Key key{11, 6, core::KernelType::kCubicLn};
  core::FitMemoEntry first;
  first.fn = core::FittedFunction{core::KernelType::kCubicLn,
                                  {1.0, 2.0, 3.0, 4.0}, 2.0};
  first.diag.path = core::FitDiag::Path::kLinear;
  memo.insert(key, first);
  const auto before = memo.stats();

  core::FitMemoEntry second = first;
  second.fn->params[0] = -1.0;
  memo.insert(key, second);
  EXPECT_EQ(memo.stats().entries, before.entries);
  EXPECT_EQ(memo.stats().bytes, before.bytes);

  // Within one batch, the first occurrence of a digest wins, and a
  // resident key still appends nothing.
  const core::FitMemo::Key other{12, 6, core::KernelType::kCubicLn};
  memo.insert({{other, &first.fn, &first.diag},
               {other, &second.fn, &second.diag},
               {key, &second.fn, &second.diag}});
  EXPECT_EQ(memo.stats().entries, before.entries + 1);

  core::FitMemoEntry out;
  ASSERT_TRUE(memo.lookup(key, &out));
  expect_same_bits(out, first);
  ASSERT_TRUE(memo.lookup(other, &out));
  expect_same_bits(out, first);
}

// A real campaign's records stay inside the memo's byte budget: arena and
// index together at most 128 bytes per (kernel, prefix) entry.
TEST(FitMemo, StreamedCampaignStaysInsideTheByteBudget) {
  const auto full = campaign(2, 16);
  core::FitMemo memo;
  core::ExecContext ctx;
  ctx.memo = &memo;
  for (std::size_t n = 8; n <= full.num_points(); ++n) {
    (void)core::predict(full.truncated(n), serving_config(), ctx);
  }
  const auto s = memo.stats();
  ASSERT_GT(s.entries, 0u);
  EXPECT_LE(s.bytes, 128 * s.entries)
      << s.bytes << " bytes for " << s.entries << " entries";
}

// ---------------------------------------------------------------------------
// The golden identity contract
// ---------------------------------------------------------------------------

// Memoized predictions — cold memo, warm memo, and warm-after-append —
// must serialize byte-identically to cold predict() across both fit
// engines and both pool modes. This is the acceptance bar for the whole
// streaming path.
TEST(StreamingGolden, MemoizedByteIdenticalAcrossEnginesAndPools) {
  const auto full = campaign(3, 15);
  for (const core::FitFillFn engine :
       {&core::scalar_fill, core::FitFillFn{}}) {
    for (const bool pooled : {false, true}) {
      const auto cfg = serving_config();
      parallel::ThreadPool pool(4);
      core::ExecContext cold_ctx(pooled ? &pool : nullptr);
      cold_ctx.engine = engine;

      core::FitMemo memo;
      core::ExecContext warm_ctx = cold_ctx;
      warm_ctx.memo = &memo;
      // Grow the series 12 -> 13 -> 15 through one persistent memo, the
      // way a campaign grows through appends.
      for (const std::size_t k :
           {std::size_t{12}, std::size_t{13}, std::size_t{15}}) {
        const auto ms = full.truncated(k);
        const auto cold = core::predict(ms, cfg, cold_ctx);
        const auto warm = core::predict(ms, cfg, warm_ctx);
        EXPECT_EQ(serialized(cold), serialized(warm))
            << "engine=" << (engine == nullptr ? "library" : "oracle")
            << " pooled=" << pooled << " points=" << k;
      }
      // The growth actually replayed old prefixes from the memo.
      EXPECT_GT(memo.stats().hits, 0u)
          << "engine=" << (engine == nullptr ? "library" : "oracle")
          << " pooled=" << pooled;
    }
  }
}

// The serialized accounting (fits_executed, duplicate_fits_eliminated) is
// part of the wire format and derives from the job layout, not from what
// actually executed — a memo hit must not perturb it. The non-serialized
// memo_hits counter is where replays show up.
TEST(StreamingGolden, MemoHitsCountedOutsideSerializedAccounting) {
  const auto cfg = serving_config();
  const auto ms = campaign(1);
  const auto cold = core::predict(ms, cfg);

  core::FitMemo memo;
  core::ExecContext ctx;
  ctx.memo = &memo;
  const auto first = core::predict(ms, cfg, ctx);
  const auto second = core::predict(ms, cfg, ctx);

  EXPECT_EQ(serialized(first), serialized(cold));
  EXPECT_EQ(serialized(second), serialized(cold));

  EXPECT_EQ(first.factor_stats.fits_executed, cold.factor_stats.fits_executed);
  EXPECT_EQ(second.factor_stats.fits_executed,
            cold.factor_stats.fits_executed);
  EXPECT_EQ(second.factor_stats.duplicate_fits_eliminated,
            cold.factor_stats.duplicate_fits_eliminated);

  // A fully warm re-prediction replays its factor fits from the memo.
  EXPECT_EQ(cold.factor_stats.memo_hits, 0u);
  EXPECT_GT(second.factor_stats.memo_hits, 0u);
  EXPECT_GT(memo.stats().hits, 0u);
  EXPECT_GT(memo.stats().entries, 0u);
}

// An append only creates fits whose prefixes reach into the new point:
// re-predicting after one appended point must execute far fewer fits
// than the initial cold prediction did.
TEST(StreamingGolden, AppendExecutesOnlyNewPrefixFits) {
  const auto cfg = serving_config();
  const auto full = campaign(2, 13);

  core::FitMemo memo;
  core::ExecContext ctx;
  ctx.memo = &memo;
  (void)core::predict(full.truncated(12), cfg, ctx);
  const auto base_misses = memo.stats().misses;
  ASSERT_GT(base_misses, 0u);

  const auto grown = core::predict(full.truncated(13), cfg, ctx);
  EXPECT_EQ(serialized(grown), serialized(core::predict(full.truncated(13),
                                                        cfg)));
  const auto new_misses = memo.stats().misses - base_misses;
  EXPECT_LT(new_misses, base_misses)
      << "append re-ran " << new_misses << " of " << base_misses
      << " fits — the memo is not carrying old prefixes";
}

// An abandoned enumeration must leave the memo untouched: a slot whose job
// never ran holds no fit, and replaying that "no fit" later would change
// the answer. The next complete enumeration then fits and inserts every
// slot, and its candidates equal a memo-free run's bit for bit.
TEST(StreamingGolden, AbandonedEnumerationInsertsNothingIntoTheMemo) {
  const auto ms = campaign(4);
  const auto& ys = ms.categories.front().values;
  const core::ExtrapolationConfig cfg;
  const std::size_t slots =
      core::kAllKernels.size() *
      (ms.cores.size() - 2 - static_cast<std::size_t>(cfg.min_prefix) + 1);
  for (const core::FitFillFn engine :
       {&core::scalar_fill, core::FitFillFn{}}) {
    core::FitMemo memo;
    core::Deadline expired;
    expired.cancel();
    core::ExecContext ctx;
    ctx.engine = engine;
    ctx.memo = &memo;
    ctx.deadline = &expired;
    core::EnumerationStats abandoned;
    EXPECT_TRUE(core::enumerate_candidates(ms.cores, ys, cfg, ctx, nullptr,
                                           &abandoned)
                    .empty());
    EXPECT_EQ(abandoned.fits_cancelled, slots);
    EXPECT_EQ(memo.stats().entries, 0u);

    ctx.deadline = nullptr;
    core::EnumerationStats completed;
    const auto got =
        core::enumerate_candidates(ms.cores, ys, cfg, ctx, nullptr, &completed);
    core::ExecContext cold_ctx;
    cold_ctx.engine = engine;
    const auto want = core::enumerate_candidates(ms.cores, ys, cfg, cold_ctx);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].fn.type, want[i].fn.type);
      EXPECT_EQ(got[i].fn.params, want[i].fn.params);  // bitwise
      EXPECT_EQ(got[i].fn.y_scale, want[i].fn.y_scale);
      EXPECT_EQ(got[i].prefix_len, want[i].prefix_len);
      EXPECT_EQ(got[i].checkpoints, want[i].checkpoints);
      EXPECT_EQ(got[i].checkpoint_rmse, want[i].checkpoint_rmse);  // bitwise
    }
    EXPECT_EQ(completed.fits_cancelled, 0u);
    EXPECT_EQ(completed.memo_hits, 0u);
    EXPECT_EQ(memo.stats().entries, slots);
  }
}

// ---------------------------------------------------------------------------
// ResultCache: point invalidation
// ---------------------------------------------------------------------------

TEST(ResultCacheErase, RemovesEntryAndCountsInvalidations) {
  ResultCache cache(4);
  cache.put(7, dummy_value());
  ASSERT_NE(cache.get(7).prediction, nullptr);

  EXPECT_TRUE(cache.erase(7));
  EXPECT_EQ(cache.get(7).prediction, nullptr);
  EXPECT_TRUE(cache.entries().empty());

  auto s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);

  // Erasing a dead key is not an invalidation.
  EXPECT_FALSE(cache.erase(7));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

// ---------------------------------------------------------------------------
// CampaignStore
// ---------------------------------------------------------------------------

TEST(CampaignStore, CreateAppendPredictDeleteLifecycle) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService svc(scfg);
  CampaignStore store(svc);
  const auto full = campaign(4, 14);

  bool created = false;
  auto info = store.create("tx-batch", full.truncated(12), &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.points, 12u);
  const auto hash_v1 = info.hash;
  EXPECT_EQ(hash_v1, svc.hash_of(full.truncated(12)));

  // First predict computes and caches under the v1 hash; second hits.
  CacheDisposition d = CacheDisposition::kUnknown;
  const auto p1 = store.predict("tx-batch", nullptr, nullptr, &d);
  EXPECT_EQ(d, CacheDisposition::kMiss);
  (void)store.predict("tx-batch", nullptr, nullptr, &d);
  EXPECT_EQ(d, CacheDisposition::kHit);
  EXPECT_EQ(serialized(p1), serialized(core::predict(full.truncated(12),
                                                     scfg.prediction)));

  // Append two higher-core points: version bumps, hash moves, and EXACTLY
  // the superseded hash dies in the cache.
  info = store.append("tx-batch", tail(full, 12));
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.points, 14u);
  EXPECT_NE(info.hash, hash_v1);
  EXPECT_EQ(info.hash, svc.hash_of(full));
  EXPECT_EQ(svc.stats().cache.invalidations, 1u);
  EXPECT_FALSE(svc.invalidate(hash_v1)) << "the superseded entry lives";

  // Re-prediction is a miss under the new hash, byte-identical to cold,
  // and rides the memo (old prefixes replay).
  const auto p2 = store.predict("tx-batch", nullptr, nullptr, &d, &info);
  EXPECT_EQ(d, CacheDisposition::kMiss);
  EXPECT_EQ(serialized(p2), serialized(core::predict(full, scfg.prediction)));
  EXPECT_GT(info.memo.hits, 0u);

  const auto st = store.stats();
  EXPECT_EQ(st.created, 1u);
  EXPECT_EQ(st.appends, 1u);
  EXPECT_EQ(st.predictions, 3u);
  EXPECT_EQ(st.hash_invalidations, 1u);
  EXPECT_EQ(st.active, 1u);

  EXPECT_TRUE(store.remove("tx-batch"));
  EXPECT_FALSE(store.remove("tx-batch"));
  EXPECT_THROW(store.info("tx-batch"), CampaignNotFound);
  EXPECT_THROW((void)store.predict("tx-batch"), CampaignNotFound);
  EXPECT_THROW(store.append("tx-batch", tail(full, 12)), CampaignNotFound);
  EXPECT_EQ(store.stats().active, 0u);
}

TEST(CampaignStore, AppendRejectsBadDeltasAndLeavesCampaignUntouched) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService svc(scfg);
  CampaignStore store(svc);
  const auto full = campaign(5, 14);
  store.create("c", full.truncated(12));

  // Empty delta.
  auto empty = tail(full, 12);
  empty.cores.clear();
  empty.time_s.clear();
  for (auto& c : empty.categories) c.values.clear();
  EXPECT_THROW(store.append("c", empty), std::invalid_argument);

  // Duplicate core count (<= the campaign's last measured count).
  EXPECT_THROW(store.append("c", tail(full, 11)), std::invalid_argument);

  // Metadata mismatch.
  auto renamed = tail(full, 12);
  renamed.workload = "other-workload";
  EXPECT_THROW(store.append("c", renamed), std::invalid_argument);

  // Category set mismatch.
  auto recat = tail(full, 12);
  recat.categories[0].name = "not_a_stall";
  EXPECT_THROW(store.append("c", recat), std::invalid_argument);
  auto dropped = tail(full, 12);
  dropped.categories.pop_back();
  EXPECT_THROW(store.append("c", dropped), std::invalid_argument);

  // Non-ascending within the delta itself.
  auto swapped = tail(full, 12);
  std::swap(swapped.cores[0], swapped.cores[1]);
  EXPECT_THROW(store.append("c", swapped), std::invalid_argument);

  // Every rejection left the campaign exactly as created.
  const auto info = store.info("c");
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.points, 12u);
  EXPECT_EQ(info.hash, svc.hash_of(full.truncated(12)));
  EXPECT_EQ(store.stats().appends, 0u);

  // And a valid append still works afterwards.
  EXPECT_EQ(store.append("c", tail(full, 12)).points, 14u);
}

TEST(CampaignStore, CreateValidatesAndBoundsResidency) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService svc(scfg);
  CampaignStore store(svc, /*max_campaigns=*/2);

  EXPECT_THROW(store.create("", campaign(1)), std::invalid_argument);
  EXPECT_THROW(store.create("tiny", campaign(1, 2)), std::invalid_argument);

  store.create("a", campaign(1));
  store.create("b", campaign(2));
  EXPECT_THROW(store.create("c", campaign(3)), std::invalid_argument);
  // Replacing a resident name is not a new residency.
  store.create("a", campaign(6));
  EXPECT_EQ(store.stats().active, 2u);
}

TEST(CampaignStore, ReplaceResetsMemoAndInvalidatesOldHash) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService svc(scfg);
  CampaignStore store(svc);

  const auto first = campaign(1);
  const auto second = campaign(7);
  auto info = store.create("c", first);
  const auto hash_v1 = info.hash;
  (void)store.predict("c");  // warms the cache + memo under the v1 hash

  bool created = true;
  info = store.create("c", second, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(info.version, 2u);
  EXPECT_NE(info.hash, hash_v1);
  // A replacement is a new series: memo reset (its storage freed), old
  // cache entry dead.
  EXPECT_EQ(info.memo.entries, 0u);
  EXPECT_EQ(info.memo.bytes, core::FitMemo{}.stats().bytes);
  EXPECT_EQ(svc.stats().cache.invalidations, 1u);
  EXPECT_FALSE(svc.invalidate(hash_v1)) << "the superseded entry lives";

  CacheDisposition d = CacheDisposition::kUnknown;
  const auto p = store.predict("c", nullptr, nullptr, &d);
  EXPECT_EQ(d, CacheDisposition::kMiss);
  EXPECT_EQ(serialized(p), serialized(core::predict(second,
                                                    scfg.prediction)));

  const auto st = store.stats();
  EXPECT_EQ(st.created, 1u);
  EXPECT_EQ(st.replaced, 1u);
}

// Distinct campaigns mutate and predict concurrently through one shared
// store and service; per-campaign versions stay exact. Runs under TSan in
// CI (sanitize-thread builds this suite).
TEST(CampaignStore, ConcurrentAppendsAndPredictsAcrossCampaigns) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService svc(scfg);
  CampaignStore store(svc);

  constexpr int kCampaigns = 3;
  constexpr int kAppends = 2;
  std::vector<core::MeasurementSet> fulls;
  for (int i = 0; i < kCampaigns; ++i) {
    fulls.push_back(campaign(i, 12 + kAppends));
    store.create("c" + std::to_string(i), fulls[i].truncated(12));
  }

  std::vector<std::thread> threads;
  for (int i = 0; i < kCampaigns; ++i) {
    threads.emplace_back([&store, &fulls, i] {
      const std::string name = "c" + std::to_string(i);
      for (int a = 0; a < kAppends; ++a) {
        auto delta = fulls[i].truncated(12 + a + 1);
        store.append(name, tail(delta, 12 + a));
        (void)store.predict(name);
      }
    });
    threads.emplace_back([&store, i] {
      const std::string name = "c" + std::to_string(i);
      for (int r = 0; r < 4; ++r) (void)store.predict(name);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kCampaigns; ++i) {
    const auto info = store.info("c" + std::to_string(i));
    EXPECT_EQ(info.version, 1u + kAppends);
    EXPECT_EQ(info.points, 12u + kAppends);
    EXPECT_EQ(info.hash, svc.hash_of(fulls[i]));
    // The final state predicts byte-identically to a cold run.
    EXPECT_EQ(serialized(store.predict("c" + std::to_string(i))),
              serialized(core::predict(fulls[i], scfg.prediction)));
  }
  EXPECT_EQ(store.stats().appends,
            static_cast<std::uint64_t>(kCampaigns * kAppends));
}

}  // namespace
}  // namespace estima::service
