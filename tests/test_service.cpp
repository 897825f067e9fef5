#include "service/prediction_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/prediction_io.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/histogram.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "oracle/scalar_fit.hpp"
#include "service/campaign_hash.hpp"
#include "service/ingest.hpp"
#include "service/result_cache.hpp"
#include "service/routes.hpp"
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

std::string csv_text(const core::MeasurementSet& ms) {
  std::ostringstream os;
  core::write_csv(os, ms);
  return os.str();
}

/// The body digest the router hands the cache's body index.
std::size_t digest_of(std::string_view body) {
  return std::hash<std::string_view>{}(body);
}

/// A stand-in answer, told apart by its one core count.
std::shared_ptr<const core::Prediction> pred(int id) {
  auto p = std::make_shared<core::Prediction>();
  p->cores = {id};
  return p;
}

void expect_bit_identical(const core::Prediction& a,
                          const core::Prediction& b) {
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.stalls_per_core, b.stalls_per_core);
  EXPECT_EQ(a.factor_fn.params, b.factor_fn.params);
  EXPECT_EQ(a.factor_correlation, b.factor_correlation);
  ASSERT_EQ(a.categories.size(), b.categories.size());
  for (std::size_t i = 0; i < a.categories.size(); ++i) {
    EXPECT_EQ(a.categories[i].name, b.categories[i].name);
    EXPECT_EQ(a.categories[i].values, b.categories[i].values);
    EXPECT_EQ(a.categories[i].extrapolation.best.params,
              b.categories[i].extrapolation.best.params);
    EXPECT_EQ(a.categories[i].extrapolation.checkpoint_rmse,
              b.categories[i].extrapolation.checkpoint_rmse);
  }
}

TEST(CampaignHash, StableAcrossCategoryReordering) {
  const auto cfg = serving_config();
  auto ms = campaign(1);
  ASSERT_GE(ms.categories.size(), 2u);
  const std::uint64_t h = campaign_hash(ms, cfg);

  auto permuted = ms;
  std::reverse(permuted.categories.begin(), permuted.categories.end());
  EXPECT_EQ(campaign_hash(permuted, cfg), h);

  // Repeated hashing is deterministic.
  EXPECT_EQ(campaign_hash(ms, cfg), h);
}

TEST(CampaignHash, SensitiveToValueAndConfigChanges) {
  const auto cfg = serving_config();
  const auto ms = campaign(1);
  const std::uint64_t h = campaign_hash(ms, cfg);

  auto tweaked = ms;
  tweaked.categories[0].values[2] += 1.0;
  EXPECT_NE(campaign_hash(tweaked, cfg), h);

  auto renamed = ms;
  renamed.workload = "other";
  EXPECT_NE(campaign_hash(renamed, cfg), h);

  auto other_cfg = cfg;
  other_cfg.dataset_scale = 2.0;
  EXPECT_NE(campaign_hash(ms, other_cfg), h);

  auto other_cores = cfg;
  other_cores.target_cores.push_back(64);
  EXPECT_NE(campaign_hash(ms, other_cores), h);
}

// Snapshots are gated on config_signature, so its value is part of the
// on-disk format: these literals were computed before the execution knobs
// (pool, engine, fit layout, sinks, memo) moved out of the config, and a
// snapshot written then must still restore. The knobs cannot perturb the
// signature any more because the config no longer has them.
TEST(CampaignHash, ConfigSignatureValuesArePinned) {
  EXPECT_EQ(core::config_signature(core::PredictionConfig{}),
            0xd65d2843a01b6922ull);
  auto cfg = serving_config();
  const std::uint64_t sig = core::config_signature(cfg);
  EXPECT_EQ(sig, 0x02dcc147272e8e22ull);
  cfg.extrap.min_prefix = 2;
  EXPECT_NE(core::config_signature(cfg), sig);
}

TEST(PredictMany, BitIdenticalToSerialPredictAcrossThreadCounts) {
  const auto cfg = serving_config();
  std::vector<core::MeasurementSet> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(campaign(i));
  batch.push_back(campaign(2));  // in-batch duplicate
  batch.push_back(campaign(0));  // in-batch duplicate

  std::vector<core::Prediction> serial;
  for (const auto& ms : batch) serial.push_back(core::predict(ms, cfg));

  for (std::size_t threads : {0u, 1u, 4u}) {
    parallel::ThreadPool pool(threads);
    ServiceConfig scfg;
    scfg.prediction = cfg;
    PredictionService service(scfg, threads == 0 ? nullptr : &pool);
    const auto out = service.predict_many(batch);
    ASSERT_EQ(out.size(), batch.size()) << threads << " threads";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_bit_identical(out[i], serial[i]);
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.campaigns_submitted, batch.size());
    EXPECT_EQ(stats.predictions_computed, 4u);  // uniques only
    EXPECT_EQ(stats.batch_duplicates_folded, 2u);
  }
}

TEST(PredictMany, SecondPassServedEntirelyFromCache) {
  std::vector<core::MeasurementSet> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(campaign(i));

  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService service(scfg);
  const auto first = service.predict_many(batch);
  const auto after_first = service.stats();
  EXPECT_EQ(after_first.predictions_computed, 3u);
  EXPECT_EQ(after_first.cache.misses, 3u);

  const auto second = service.predict_many(batch);
  const auto after_second = service.stats();
  // 100% hit rate on the second pass: no new computation, no new miss.
  EXPECT_EQ(after_second.predictions_computed, 3u);
  EXPECT_EQ(after_second.cache.misses, 3u);
  EXPECT_EQ(after_second.cache.hits - after_first.cache.hits, 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_bit_identical(second[i], first[i]);
  }
}

TEST(PredictOne, CacheFronted) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService service(scfg);
  const auto ms = campaign(5);
  const auto a = service.predict_one(ms);
  const auto b = service.predict_one(ms);
  expect_bit_identical(a, b);
  EXPECT_EQ(service.stats().predictions_computed, 1u);
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(ResultCache, LruEvictionAndCounters) {
  ResultCache cache(2);
  cache.put(1, pred(1));
  cache.put(2, pred(2));
  ASSERT_NE(cache.get(1).prediction, nullptr);  // 1 becomes most recent
  cache.put(3, pred(3));  // evicts 2, the LRU entry
  EXPECT_EQ(cache.get(2).prediction, nullptr);
  ASSERT_NE(cache.get(1).prediction, nullptr);
  ASSERT_NE(cache.get(3).prediction, nullptr);
  EXPECT_EQ(cache.get(3).prediction->cores[0], 3);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCache, CapacityIsRespected) {
  // One exact LRU: capacity bounds the entries held, and the survivors are
  // the most recent puts.
  ResultCache cache(8);
  auto p = std::make_shared<const core::Prediction>();
  for (std::uint64_t k = 0; k < 100; ++k) cache.put(k * 7919 + 3, p);
  EXPECT_EQ(cache.stats().entries, 8u);
  EXPECT_EQ(cache.stats().evictions, 92u);
  std::vector<std::uint64_t> keys;
  for (const auto& e : cache.entries()) keys.push_back(e.key);
  std::vector<std::uint64_t> newest;
  for (std::uint64_t k = 92; k < 100; ++k) newest.push_back(k * 7919 + 3);
  EXPECT_EQ(keys, newest);

  // A zero capacity is clamped to one entry.
  ResultCache one(0);
  one.put(1, p);
  one.put(2, p);
  EXPECT_EQ(one.stats().entries, 1u);
  EXPECT_NE(one.get(2).prediction, nullptr);
}

TEST(ResultCache, EntriesListEveryEntryLruFirst) {
  ResultCache cache(4);
  cache.put(10, pred(10));
  cache.put(11, pred(11));
  cache.put(12, pred(12));
  ASSERT_NE(cache.get(10).prediction, nullptr);  // 10 becomes most recent

  std::vector<std::uint64_t> keys;
  for (const auto& e : cache.entries()) {
    ASSERT_NE(e.prediction, nullptr);
    EXPECT_EQ(e.prediction->cores[0], static_cast<int>(e.key));
    keys.push_back(e.key);
  }
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{11, 12, 10}));
}

TEST(ResultCache, ExportedEntriesOutliveTheirEviction) {
  // An export hands out the cached objects themselves: entries evicted
  // after the export stay alive and intact through their shared_ptrs.
  ResultCache cache(2);
  cache.put(1, pred(1));
  cache.put(2, pred(2));
  const auto exported = cache.entries();
  cache.put(100, pred(100));
  cache.put(101, pred(101));  // both exported entries are evicted now
  EXPECT_EQ(cache.get(1).prediction, nullptr);
  EXPECT_EQ(cache.get(2).prediction, nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
  ASSERT_EQ(exported.size(), 2u);
  for (const auto& e : exported) {
    EXPECT_EQ(e.prediction->cores[0], static_cast<int>(e.key));
  }
}

TEST(PredictMany, InFlightDedupUnderConcurrentSubmission) {
  std::vector<core::MeasurementSet> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(campaign(i));
  batch.push_back(campaign(1));  // plus an in-batch repeat

  parallel::ThreadPool pool(2);
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService service(scfg, &pool);

  // Several submitter threads race the same batch through one service:
  // every unique campaign must be computed exactly once, everyone else
  // either joins the in-flight computation or hits the cache.
  constexpr int kSubmitters = 4;
  std::vector<std::vector<core::Prediction>> results(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back(
        [&, t] { results[t] = service.predict_many(batch); });
  }
  for (auto& th : submitters) th.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.predictions_computed, 3u);
  EXPECT_EQ(stats.campaigns_submitted,
            static_cast<std::uint64_t>(kSubmitters * batch.size()));
  for (int t = 1; t < kSubmitters; ++t) {
    ASSERT_EQ(results[t].size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_bit_identical(results[t][i], results[0][i]);
    }
  }
}

// One lock guards the cache, the in-flight table and the counters. Race
// every entry point that takes it on a service whose cache is smaller
// than the campaign set: answer (hits, misses, joins) with the pool's
// keep step after each hit, lookup_body (the event loops' step),
// invalidate, snapshot_to and stats(). Every answer and every kept
// record must equal serial predict(), every stats() must be one
// consistent picture, and the last snapshot must restore only real
// answers. The test also runs under TSan in CI.
TEST(PredictionServiceRace, MixedTrafficStaysExact) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "estima_service_race_test.snap";
  constexpr int kCampaigns = 6;
  constexpr std::size_t kCapacity = 4;
  std::vector<core::MeasurementSet> campaigns;
  std::vector<core::Prediction> serial;
  std::vector<std::string> bodies, records;
  for (int i = 0; i < kCampaigns; ++i) {
    campaigns.push_back(campaign(i, 8));
    serial.push_back(core::predict(campaigns.back(), serving_config()));
    bodies.push_back(csv_text(campaigns.back()));
    records.push_back(core::render_prediction(serial.back()));
  }
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  scfg.cache_capacity = kCapacity;
  PredictionService service(scfg);
  std::unordered_map<std::uint64_t, int> index_of;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < kCampaigns; ++i) {
    keys.push_back(service.hash_of(campaigns[i]));
    index_of[keys.back()] = i;
  }

  // Predictors mostly share two hot campaigns (hits and joins) and visit
  // the others every third request (misses and evictions).
  constexpr int kPredictors = 3;
  constexpr int kRequests = 30;
  std::vector<std::thread> predictors;
  for (int t = 0; t < kPredictors; ++t) {
    predictors.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const int c = i % 3 == 0 ? (i / 3 + t) % kCampaigns : i % 2;
        CacheDisposition d = CacheDisposition::kUnknown;
        const CachedAnswer a =
            service.answer(keys[c], campaigns[c], nullptr, nullptr, &d);
        expect_bit_identical(*a.prediction, serial[c]);
        if (d == CacheDisposition::kHit) {
          (void)service.keep_record(keys[c], a, records[c], bodies[c],
                                    digest_of(bodies[c]));
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<int> snapshots{0};
  std::uint64_t reader_hits = 0;  // read after the reader is joined
  std::vector<std::thread> others;
  others.emplace_back([&] {  // body reader (the event loops' lookup)
    for (std::size_t i = 0; !stop.load(); ++i) {
      const std::size_t c = i % bodies.size();
      std::uint64_t key = 0;
      const CachedAnswer v =
          service.lookup_body(digest_of(bodies[c]), bodies[c], &key);
      if (v.prediction) {
        EXPECT_EQ(key, keys[c]);
        expect_bit_identical(*v.prediction, serial[c]);
        ASSERT_NE(v.record, nullptr) << "a body kept without its record";
        EXPECT_EQ(*v.record, records[c]);
        ++reader_hits;
      }
    }
  });
  others.emplace_back([&] {  // point invalidation
    for (std::size_t i = 0; !stop.load(); ++i) {
      (void)service.invalidate(keys[i % keys.size()]);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  others.emplace_back([&] {  // snapshots
    while (!stop.load()) {
      (void)service.snapshot_to(path.string());
      ++snapshots;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  others.emplace_back([&] {  // stats readers see one consistent picture
    while (!stop.load()) {
      const ServiceStats s = service.stats();
      EXPECT_LE(s.cache.entries, kCapacity);
      EXPECT_LE(s.predictions_computed + s.predictions_cancelled +
                    s.inflight_joins,
                s.cache.misses);
    }
  });
  for (auto& th : predictors) th.join();
  stop = true;
  for (auto& th : others) th.join();

  const ServiceStats s = service.stats();
  // A lookup_body hit counts one submitted campaign, as answer does.
  EXPECT_EQ(s.campaigns_submitted,
            static_cast<std::uint64_t>(kPredictors * kRequests) +
                reader_hits);
  EXPECT_GE(s.cache.hits, reader_hits);
  EXPECT_LE(s.cache.entries, kCapacity);
  EXPECT_LE(s.predictions_computed + s.inflight_joins, s.cache.misses);
  EXPECT_GT(s.cache.invalidations, 0u);
  ASSERT_GT(snapshots.load(), 0);

  PredictionService restored(scfg);
  const SnapshotLoadReport report = restored.restore_from(path.string());
  EXPECT_TRUE(report.skipped.empty());
  EXPECT_FALSE(report.truncated);
  EXPECT_LE(report.entries.size(), kCapacity);
  for (const auto& e : report.entries) {
    const auto it = index_of.find(e.key);
    ASSERT_NE(it, index_of.end()) << "snapshot holds an unknown key";
    expect_bit_identical(*e.prediction, serial[it->second]);
  }
  fs::remove(path);
}

TEST(PredictMany, ErrorsPropagateAndAreNeverCached) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService service(scfg);

  auto bad = campaign(1);
  bad = bad.truncated(2);  // predict() needs >= 3 points
  std::vector<core::MeasurementSet> batch{campaign(0), bad};
  EXPECT_THROW(service.predict_many(batch), std::invalid_argument);

  // The good campaign was still computed and cached; the failure was not.
  const auto after_first = service.stats();
  EXPECT_EQ(after_first.predictions_computed, 1u);
  EXPECT_THROW(service.predict_many(batch), std::invalid_argument);
  EXPECT_EQ(service.stats().predictions_computed, 1u);

  std::vector<core::MeasurementSet> good_only{campaign(0)};
  const auto out = service.predict_many(good_only);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(service.stats().predictions_computed, 1u);  // cache hit
}

TEST(Ingest, LoadsCsvCampaignsInPathOrderAndReportsErrors) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "estima_ingest_test_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::save_csv((dir / "b_second.csv").string(), campaign(2, 8));
  core::save_csv((dir / "a_first.csv").string(), campaign(1, 8));
  {
    std::ofstream bad(dir / "c_broken.csv");
    bad << "# workload=w machine=m freq_ghz=1\ncores,time_s\n1,1.0,extra\n";
  }
  {
    std::ofstream ignored(dir / "notes.txt");
    ignored << "not a campaign\n";
  }

  auto report = ingest_directory(dir.string());
  ASSERT_EQ(report.campaigns.size(), 2u);
  EXPECT_NE(report.campaigns[0].path.find("a_first"), std::string::npos);
  EXPECT_NE(report.campaigns[1].path.find("b_second"), std::string::npos);
  EXPECT_EQ(report.campaigns[0].set.workload, "campaign-1");
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].path.find("c_broken"), std::string::npos);
  EXPECT_EQ(report.sets().size(), 2u);

  // The ingested batch drives the service end to end.
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  PredictionService service(scfg);
  const auto preds = service.predict_many(report.sets());
  EXPECT_EQ(preds.size(), 2u);

  // Rvalue sets() moves the campaigns out instead of copying.
  auto moved = std::move(report).sets();
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0].workload, "campaign-1");
  EXPECT_TRUE(report.campaigns.empty());

  fs::remove_all(dir);
}

TEST(Ingest, NonexistentDirectoryThrowsRuntimeErrorNamingThePath) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "estima_ingest_no_such_dir";
  fs::remove_all(dir);
  try {
    ingest_directory(dir.string());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ingest directory"), std::string::npos) << what;
    EXPECT_NE(what.find(dir.string()), std::string::npos) << what;
  }
  // A regular file is just as unreadable as a missing directory.
  const fs::path file = fs::temp_directory_path() / "estima_ingest_a_file";
  { std::ofstream(file) << "not a directory\n"; }
  EXPECT_THROW(ingest_directory(file.string()), std::runtime_error);
  fs::remove(file);
}

// The service adds each call's deadline, trace, memo and audit itself and
// serves from the batched engine, so a base context carrying any of those
// would be ignored: it is refused instead.
TEST(PredictionService, BaseContextCarriesOnlyPoolAndMetrics) {
  ServiceConfig scfg;
  scfg.prediction = serving_config();
  core::Deadline deadline;
  core::ExecContext with_deadline;
  with_deadline.deadline = &deadline;
  EXPECT_THROW(PredictionService service(scfg, with_deadline),
               std::invalid_argument);
  core::ExecContext reference;
  reference.engine = &core::scalar_fill;
  EXPECT_THROW(PredictionService service(scfg, reference),
               std::invalid_argument);
  parallel::ThreadPool pool(1);
  EXPECT_NO_THROW(PredictionService service(scfg, &pool));
}

// Every route that reads a campaign body answers a malformed metadata
// number or a short column header with 400 and the reader's message —
// never 500, which the router reserves for exceptions other than
// std::invalid_argument (std::stod's std::out_of_range on "1e999" was one).
TEST(ServiceRouter, MalformedCampaignHeadersAnswer400OnEveryCampaignRoute) {
  PredictionService service(ServiceConfig{serving_config(), 64});
  ServiceRouter router(service);
  const auto request = [&](const std::string& method,
                           const std::string& target,
                           const std::string& body) {
    net::HttpRequest req;
    req.method = method;
    req.target = target;
    req.body = body;
    return router.handle(req);
  };
  std::ostringstream good;
  core::write_csv(good, campaign(1));
  ASSERT_EQ(request("PUT", "/v1/campaigns/c", good.str()).status, 201);

  const std::string rows = "1,1.0\n2,0.6\n";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"# workload=w freq_ghz=1e999\ncores,time_s\n" + rows,
       "measurement csv: malformed metadata value 'freq_ghz=1e999'"},
      {"# workload=w freq_ghz=fast\ncores,time_s\n" + rows,
       "measurement csv: malformed metadata value 'freq_ghz=fast'"},
      {"# workload=w freq_ghz=2.1GHz\ncores,time_s\n" + rows,
       "measurement csv: malformed metadata value 'freq_ghz=2.1GHz'"},
      {"# workload=w dataset_bytes=-1e999\ncores,time_s\n" + rows,
       "measurement csv: malformed metadata value 'dataset_bytes=-1e999'"},
      {"# workload=w\ncores\n" + rows,
       "measurement csv: column header must start with cores,time_s"},
      {"# workload=w\n\n" + rows,
       "measurement csv: column header must start with cores,time_s"},
  };
  for (const auto& [body, message] : bad) {
    for (const auto& [method, target] :
         std::vector<std::pair<std::string, std::string>>{
             {"POST", "/v1/predict"},
             {"POST", "/v1/explain"},
             {"PUT", "/v1/campaigns/d"},
             {"POST", "/v1/campaigns/c/points"}}) {
      const auto resp = request(method, target, body);
      EXPECT_EQ(resp.status, 400) << method << ' ' << target << ": " << body;
      EXPECT_EQ(resp.body, message + "\n") << method << ' ' << target;
    }
    const auto resp = request("POST", "/v1/predict_batch",
                              frame_bodies({good.str(), body}, "campaign"));
    EXPECT_EQ(resp.status, 400) << body;
    EXPECT_EQ(resp.body, "campaign frame 1: " + message + "\n");
  }
  EXPECT_EQ(request("GET", "/v1/campaigns/d", "").status, 404);
}

// ---------------------------------------------------------------------------
// The event loop's step (ServiceRouter::answer_on_loop) against the
// pool-only path: same bytes, same counters, same event-log lines, and
// the same bytes kept — the pool keeps whether or not a loop is wired.

/// One-shot latch: wait() returns once count_down() ran `n` times.
class Latch {
 public:
  explicit Latch(int n) : n_(n) {}
  void count_down() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--n_ <= 0) cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return n_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
};

/// A served PredictionService with an event log: the daemon's wiring,
/// or the pool-only wiring when `loop_answers` is false. `hold`, when
/// set, runs on the handler thread before the router does.
struct ServedService {
  ServedService(bool loop_answers, const std::string& log_path,
                std::function<void(const net::HttpRequest&)> hold = {},
                std::size_t cache_capacity = 64)
      : pool(2),
        svc(ServiceConfig{serving_config(), cache_capacity}, &pool),
        router(svc),
        log(obs::EventLogConfig{log_path, 1024, 0, 5}),
        hold_(std::move(hold)) {
    router.set_event_log(&log);
    net::ServerConfig ncfg;
    ncfg.io_threads = 1;
    ncfg.worker_threads = 2;
    net::HttpServer::LoopAnswer loop;
    if (loop_answers) {
      loop = [this](const net::HttpRequest& req,
                    const net::RequestContext& ctx) {
        return router.answer_on_loop(req, ctx);
      };
    }
    server = std::make_unique<net::HttpServer>(
        ncfg,
        [this](const net::HttpRequest& req, const net::RequestContext& ctx) {
          if (hold_) hold_(req);
          return router.handle(req, ctx);
        },
        std::move(loop));
    server->start();
  }

  net::HttpResponse post(
      const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers = {},
      const std::string& target = "/v1/predict") {
    net::HttpClient c("127.0.0.1", server->port());
    return c.request("POST", target, body, headers);
  }

  /// Stops serving and returns the event log, each line cut before its
  /// latency (the one field that differs run to run), sorted.
  std::vector<std::string> stop_and_read_log() {
    server->stop();
    log.stop();
    std::ifstream in(log.config().path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line.substr(0, line.find("\"latency_ms\"")));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  }

  parallel::ThreadPool pool;
  PredictionService svc;
  ServiceRouter router;
  obs::EventLog log;
  std::function<void(const net::HttpRequest&)> hold_;
  std::unique_ptr<net::HttpServer> server;
};

/// The counters the hit step must leave exactly as the pool-only path
/// leaves them.
struct Books {
  std::uint64_t submitted, hits, misses, joins, computed;
  bool operator==(const Books& o) const {
    return submitted == o.submitted && hits == o.hits &&
           misses == o.misses && joins == o.joins && computed == o.computed;
  }
};

std::ostream& operator<<(std::ostream& os, const Books& b) {
  return os << "{submitted " << b.submitted << ", hits " << b.hits
            << ", misses " << b.misses << ", joins " << b.joins
            << ", computed " << b.computed << "}";
}

Books books_of(const PredictionService& svc) {
  const ServiceStats s = svc.stats();
  return Books{s.campaigns_submitted, s.cache.hits, s.cache.misses,
               s.inflight_joins, s.predictions_computed};
}

/// The kept bytes: CacheStats::record_bytes and body_bytes.
struct Kept {
  std::uint64_t records, bodies;
  bool operator==(const Kept& o) const {
    return records == o.records && bodies == o.bodies;
  }
};

std::ostream& operator<<(std::ostream& os, const Kept& k) {
  return os << "{records " << k.records << ", bodies " << k.bodies << "}";
}

Kept kept_of(const PredictionService& svc) {
  const ServiceStats s = svc.stats();
  return Kept{s.cache.record_bytes, s.cache.body_bytes};
}

struct SequenceResult {
  Books books;
  Kept kept;
  std::vector<std::string> log;
  std::vector<std::string> bodies;  ///< response status + body, in order
  net::ServerStats server;
};

/// The fixed sequence: miss, a first hit (the pool keeps its record and
/// body), a byte-equal repeat (loop-eligible), hit with a deadline
/// header, bad deadline header, malformed CSV, a hit whose body is above
/// the loop's bound (never kept), then an in-flight join (the joiner's
/// handler waits until the owner has claimed the key; the owner's cold
/// 128-point fit outlasts the joiner's parse and claim by orders of
/// magnitude; the join is a hit, so it keeps b's record and body).
SequenceResult run_main_sequence(bool loop_answers) {
  const auto log_path = std::filesystem::temp_directory_path() /
                        (loop_answers ? "estima_loop_parity_loop.jsonl"
                                      : "estima_loop_parity_pool.jsonl");
  std::filesystem::remove(log_path);
  const std::string a = csv_text(campaign(1, 8));
  const std::string b = csv_text(campaign(2, 128));
  std::string padded = a;
  while (padded.size() <= 64 * 1024) padded += "# padding past the bound\n";

  Latch owner_claimed(1);
  ServedService s(loop_answers, log_path.string(),
                  [&](const net::HttpRequest& req) {
                    if (req.header("x-test-joiner") != nullptr) {
                      owner_claimed.wait();
                    }
                  });
  SequenceResult out;
  const auto record = [&](const net::HttpResponse& r) {
    out.bodies.push_back(std::to_string(r.status) + " " + r.body);
  };
  record(s.post(a));
  record(s.post(a));
  record(s.post(a));
  record(s.post(a, {{"x-estima-deadline-ms", "600000"}}));
  record(s.post(a, {{"x-estima-deadline-ms", "soon"}}));
  record(s.post("cores,time_s\n1,oops\n"));
  record(s.post(padded));

  const std::uint64_t before = s.svc.stats().campaigns_submitted;
  net::HttpResponse owner, joiner;
  std::thread owner_thread([&] { owner = s.post(b); });
  std::thread joiner_thread(
      [&] { joiner = s.post(b, {{"x-test-joiner", "1"}}); });
  // The owner's claim and its submitted count are one critical section.
  while (s.svc.stats().campaigns_submitted == before) {
    std::this_thread::yield();
  }
  owner_claimed.count_down();
  owner_thread.join();
  joiner_thread.join();
  record(owner);
  record(joiner);

  out.books = books_of(s.svc);
  out.kept = kept_of(s.svc);
  out.server = s.server->stats();
  out.log = s.stop_and_read_log();
  std::filesystem::remove(log_path);
  return out;
}

TEST(LoopHits, EveryCounterAndLogLineMatchesThePoolOnlyPath) {
  const SequenceResult pool = run_main_sequence(false);
  const SequenceResult loop = run_main_sequence(true);
  EXPECT_EQ(loop.bodies, pool.bodies);
  EXPECT_EQ(loop.books, pool.books);
  EXPECT_EQ(loop.kept, pool.kept);
  EXPECT_EQ(loop.log, pool.log);
  ASSERT_EQ(pool.bodies.size(), 9u);
  EXPECT_EQ(pool.log.size(), 9u) << "one event line per request";
  // The sequence did what it says: two computed misses (the first
  // request and the join's owner), four hits (first, repeat, deadline
  // header, padded body), one join (a miss that waited for the owner).
  EXPECT_EQ(pool.books, (Books{7, 4, 3, 1, 2}));
  for (const std::size_t i : {0u, 1u, 2u, 3u, 6u, 7u, 8u}) {
    EXPECT_EQ(pool.bodies[i].substr(0, 4), "200 ") << i;
  }
  EXPECT_EQ(pool.bodies[1], pool.bodies[0]);
  EXPECT_EQ(pool.bodies[2], pool.bodies[0]);
  EXPECT_EQ(pool.bodies[6], pool.bodies[0]);
  EXPECT_EQ(pool.bodies[8], pool.bodies[7]);
  EXPECT_EQ(pool.bodies[4].substr(0, 4), "400 ");
  EXPECT_EQ(pool.bodies[5].substr(0, 4), "400 ");
  // a's first hit kept a's body and the join kept b's; the padded body,
  // a hit on a's entry above 64 KiB, kept nothing.
  const std::string a = csv_text(campaign(1, 8));
  const std::string b = csv_text(campaign(2, 128));
  EXPECT_EQ(pool.kept.bodies, a.size() + b.size());
  EXPECT_EQ(pool.kept.records, pool.bodies[0].size() - 4 +
                                   pool.bodies[7].size() - 4);
  // Only the byte-equal repeat was answered on the loop: the first hit,
  // the deadline header, the body above 64 KiB and the in-flight key
  // went to the pool.
  EXPECT_EQ(pool.server.requests_answered_on_loop, 0u);
  EXPECT_EQ(loop.server.requests_answered_on_loop, 1u);
  EXPECT_EQ(loop.server.requests_served, pool.server.requests_served);
}

// Every handler thread is busy (held at a latch, standing in for two
// long fits); a warm campaign on another connection is still answered,
// bit-identical to serial predict().
TEST(LoopHits, AHitNeverQueuesBehindTheHandlerPool) {
  const auto log_path =
      std::filesystem::temp_directory_path() / "estima_loop_busy.jsonl";
  Latch held(2), release(1);
  ServedService s(true, log_path.string(),
                  [&](const net::HttpRequest& req) {
                    if (req.header("x-test-hold") != nullptr) {
                      held.count_down();
                      release.wait();
                    }
                  });
  const core::MeasurementSet ms = campaign(4, 8);
  const std::string body = csv_text(ms);
  ASSERT_EQ(s.post(body).status, 200);  // computed on the pool
  ASSERT_EQ(s.post(body).status, 200);  // a pool hit keeps the body

  // Explains always compute, so they go to the pool.
  std::vector<std::thread> busy;
  for (int i = 0; i < 2; ++i) {
    busy.emplace_back([&] {
      EXPECT_EQ(s.post(body, {{"x-test-hold", "1"}}, "/v1/explain").status,
                200);
    });
  }
  held.wait();
  const net::HttpResponse hit = s.post(body);
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(hit.body,
            core::render_prediction(core::predict(ms, serving_config())));
  EXPECT_EQ(s.server->stats().requests_answered_on_loop, 1u);
  release.count_down();
  for (auto& t : busy) t.join();
  s.stop_and_read_log();
  std::filesystem::remove(log_path);
}

// X-Estima-Deadline-Ms counts from the request's arrival, as the edge's
// own 408 budget does: a cold campaign whose 100 ms budget ran out while
// it sat queued behind two held handler threads is cancelled at its first
// fit boundary (408, nothing cached), not granted a fresh 100 ms when a
// thread finally picks it up.
TEST(DeadlinePropagation, HeaderBudgetIsSpentWhileTheRequestIsQueued) {
  const auto log_path =
      std::filesystem::temp_directory_path() / "estima_deadline_anchor.jsonl";
  Latch held(2), release(1);
  ServedService s(true, log_path.string(),
                  [&](const net::HttpRequest& req) {
                    if (req.header("x-test-hold") != nullptr) {
                      held.count_down();
                      release.wait();
                    }
                  });
  const std::string warm = csv_text(campaign(4, 8));
  ASSERT_EQ(s.post(warm).status, 200);
  std::vector<std::thread> busy;
  for (int i = 0; i < 2; ++i) {
    busy.emplace_back([&] {
      EXPECT_EQ(s.post(warm, {{"x-test-hold", "1"}}, "/v1/explain").status,
                200);
    });
  }
  held.wait();
  const ServiceStats before = s.svc.stats();
  net::HttpResponse late;
  std::thread queued([&] {
    late = s.post(csv_text(campaign(7, 8)), {{"x-estima-deadline-ms", "100"}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  release.count_down();
  queued.join();
  for (auto& t : busy) t.join();

  EXPECT_EQ(late.status, 408) << late.body;
  const ServiceStats after = s.svc.stats();
  EXPECT_EQ(after.predictions_cancelled, before.predictions_cancelled + 1);
  EXPECT_EQ(after.predictions_computed, before.predictions_computed);
  EXPECT_EQ(after.cache.entries, before.cache.entries) << "nothing cached";
  s.stop_and_read_log();
  std::filesystem::remove(log_path);
}

// A traced hit answered on the loop: the trace id is echoed, the trace
// has no queue.wait (nothing queued), and its non-nested spans fit
// inside its total.
TEST(LoopHits, TracedLoopHitRecordsNoQueueWait) {
  obs::Registry registry;
  obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = 0;  // retain every request
  tcfg.ring_capacity = 8;
  obs::Tracer tracer(registry, tcfg);
  parallel::ThreadPool pool(2);
  PredictionService svc(ServiceConfig{serving_config(), 64}, &pool);
  ServiceRouter router(svc);
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 2;
  ncfg.tracer = &tracer;
  const std::unique_ptr<net::HttpServer> server = make_server(router, ncfg);
  server->start();
  net::HttpClient c("127.0.0.1", server->port());
  const std::string body = csv_text(campaign(5, 8));
  ASSERT_EQ(c.post("/v1/predict", body, "text/csv").status, 200);  // miss
  ASSERT_EQ(c.post("/v1/predict", body, "text/csv").status, 200);  // keeps
  const std::string id = obs::format_trace_id(0xabc123u);
  const auto hit = c.request("POST", "/v1/predict", body,
                             {{"x-estima-trace-id", id}});
  ASSERT_EQ(hit.status, 200);
  ASSERT_NE(hit.header("x-estima-trace-id"), nullptr);
  EXPECT_EQ(*hit.header("x-estima-trace-id"), id);
  EXPECT_EQ(std::count_if(hit.headers.begin(), hit.headers.end(),
                          [](const auto& h) {
                            return h.first == "x-estima-trace-id";
                          }),
            1)
      << "exactly one copy of the echo";
  EXPECT_EQ(server->stats().requests_answered_on_loop, 1u);
  server->stop();  // every trace is finished once its response is written

  bool found = false;
  for (const obs::SlowTrace& t : tracer.slow_traces()) {
    if (obs::format_trace_id(t.trace_id) != id) continue;
    found = true;
    std::uint64_t non_nested_ns = 0;
    bool saw_lookup = false;
    for (const auto& sp : t.spans) {
      EXPECT_NE(sp.stage, obs::Stage::kQueueWait);
      saw_lookup |= sp.stage == obs::Stage::kCacheLookup;
      if (!sp.nested) non_nested_ns += sp.total_ns;
    }
    EXPECT_TRUE(saw_lookup);
    EXPECT_LE(non_nested_ns, t.total_ns);
  }
  EXPECT_TRUE(found) << "the loop hit's trace was not retained";
}


// ---------------------------------------------------------------------------
// Kept records: a /v1/predict hit on the pool renders the answer and keeps
// its bytes beside the entry; later hits copy them. Nothing else keeps
// one, and a record dies with its entry.

net::HttpRequest predict_request(const std::string& body,
                                 const std::string& target = "/v1/predict",
                                 const std::string& method = "POST") {
  net::HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  return req;
}

/// The event loop's call, as HttpServer makes it.
std::optional<net::HttpResponse> loop_answer(ServiceRouter& router,
                                             const std::string& body) {
  return router.answer_on_loop(predict_request(body), net::RequestContext{});
}

/// The handler pool's call for a /v1/predict body.
net::HttpResponse pool_answer(ServiceRouter& router, const std::string& body) {
  return router.handle(predict_request(body));
}

/// What HttpServer does with a /v1/predict body: offer it to the loop,
/// then hand a decline to the pool. `*on_loop` says which answered.
net::HttpResponse serve(ServiceRouter& router, const std::string& body,
                        bool* on_loop) {
  std::optional<net::HttpResponse> resp = loop_answer(router, body);
  *on_loop = resp.has_value();
  return resp ? *std::move(resp) : pool_answer(router, body);
}

/// `ms`'s last point alone, as a campaign append's body.
core::MeasurementSet last_point(const core::MeasurementSet& ms) {
  core::MeasurementSet last = ms;
  last.cores = {ms.cores.back()};
  last.time_s = {ms.time_s.back()};
  for (auto& cat : last.categories) cat.values = {cat.values.back()};
  return last;
}

std::uint64_t record_bytes(const PredictionService& svc) {
  return svc.stats().cache.record_bytes;
}

std::uint64_t body_bytes(const PredictionService& svc) {
  return svc.stats().cache.body_bytes;
}

TEST(ResultCache, KeptRecordsAreCountedAndDieWithTheirEntry) {
  ResultCache cache(2);
  auto rec = [](std::size_t n) {
    return std::make_shared<const std::string>(n, 'r');
  };
  const auto one = pred(1);
  cache.put(1, one);
  EXPECT_FALSE(cache.keep_record(1, pred(1).get(), rec(10)))
      << "another object under the key";
  EXPECT_FALSE(cache.keep_record(9, one.get(), rec(10))) << "absent key";
  EXPECT_TRUE(cache.keep_record(1, one.get(), rec(10)));
  EXPECT_FALSE(cache.keep_record(1, one.get(), rec(20))) << "first keep wins";
  EXPECT_EQ(cache.stats().record_bytes, 10u);
  const CacheStats before = cache.stats();
  EXPECT_EQ(before.hits, 0u) << "keeping counts nothing";
  ASSERT_NE(cache.get(1).record, nullptr);
  EXPECT_EQ(cache.get(1).record->size(), 10u);

  cache.put(1, one);  // a put over a resident key drops the record
  EXPECT_EQ(cache.stats().record_bytes, 0u);
  EXPECT_EQ(cache.get(1).record, nullptr);

  EXPECT_TRUE(cache.keep_record(1, one.get(), rec(10)));
  cache.put(2, pred(2));
  EXPECT_TRUE(cache.keep_record(2, cache.get(2).prediction.get(), rec(7)));
  EXPECT_EQ(cache.stats().record_bytes, 17u);
  ASSERT_NE(cache.get(2).prediction, nullptr);  // 1 is least recent now
  cache.put(3, pred(3));  // eviction drops 1's record
  EXPECT_EQ(cache.stats().record_bytes, 7u);
  EXPECT_TRUE(cache.erase(2));  // erase drops 2's
  EXPECT_EQ(cache.stats().record_bytes, 0u);
}

// The loop declines a first hit, whose entry keeps no body yet, and counts
// nothing; the pool answers it and keeps the record and the body; every
// later byte-equal repeat is a loop answer copying that one record.
TEST(KeptRecords, ThePoolKeepsAFirstHitTheLoopDeclined) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const core::MeasurementSet ms = campaign(3, 8);
  const std::string body = csv_text(ms);
  const std::string expected =
      core::render_prediction(core::predict(ms, serving_config()));
  ASSERT_EQ(pool_answer(router, body).status, 200);  // miss
  EXPECT_EQ(kept_of(svc), (Kept{0, 0})) << "a miss kept bytes";

  const Books before = books_of(svc);
  EXPECT_FALSE(loop_answer(router, body).has_value());
  EXPECT_EQ(books_of(svc), before) << "a declined loop offer counted";
  EXPECT_EQ(pool_answer(router, body).body, expected);
  EXPECT_EQ(kept_of(svc), (Kept{expected.size(), body.size()}));

  constexpr int kReads = 5;
  std::shared_ptr<const std::string> kept;
  for (int i = 0; i < kReads; ++i) {
    const auto resp = loop_answer(router, body);
    ASSERT_TRUE(resp.has_value()) << "read " << i;
    EXPECT_EQ(resp->body, expected);
    std::uint64_t key = 0;
    const CachedAnswer now = svc.lookup_body(digest_of(body), body, &key);
    ASSERT_NE(now.record, nullptr) << "read " << i << " left no record";
    if (i == 0) kept = now.record;
    EXPECT_EQ(now.record, kept) << "read " << i << " replaced the record";
  }
  EXPECT_EQ(kept->capacity(), kept->size()) << "kept at exact size";
  EXPECT_EQ(kept_of(svc), (Kept{expected.size(), body.size()}));
  // The pool hit, the reads and the test's own lookups count as hits;
  // keeps count nothing.
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.hits, 1u + 2u * kReads);
  EXPECT_EQ(s.campaigns_submitted, 2u + 2u * kReads);
  EXPECT_EQ(s.predictions_computed, 1u);
}

// A kept record is what every later hit answers, on either path: a
// stand-in record kept through the service's own keep step comes back
// verbatim from the loop, from a pool hit and from a campaign GET.
TEST(KeptRecords, EveryLaterHitAnswersTheKeptBytes) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const core::MeasurementSet ms = campaign(2, 8);
  const std::string body = csv_text(ms);
  ASSERT_EQ(router.handle(predict_request(body, "/v1/campaigns/k", "PUT"))
                .status,
            201);
  const std::uint64_t key = svc.hash_of(ms);
  const CachedAnswer hit = svc.answer(key, ms);
  ASSERT_NE(hit.prediction, nullptr);
  ASSERT_EQ(hit.record, nullptr) << "a campaign PUT kept a record";
  EXPECT_FALSE(svc.keep_record(key, CachedAnswer{pred(1), nullptr},
                               "other object", body, digest_of(body)));
  ASSERT_TRUE(svc.keep_record(key, hit, "kept bytes\n", body,
                              digest_of(body)));
  EXPECT_EQ(kept_of(svc), (Kept{11, body.size()}));

  const auto on_loop = loop_answer(router, body);
  ASSERT_TRUE(on_loop.has_value());
  EXPECT_EQ(on_loop->body, "kept bytes\n");
  EXPECT_EQ(pool_answer(router, body).body, "kept bytes\n");
  EXPECT_EQ(router.handle(predict_request("", "/v1/campaigns/k", "GET")).body,
            "kept bytes\n");
  EXPECT_EQ(kept_of(svc), (Kept{11, body.size()}));
}

TEST(KeptRecords, EraseEvictionAndPutOverAResidentKeyDropTheRecord) {
  namespace fs = std::filesystem;
  PredictionService svc(ServiceConfig{serving_config(), 2});
  ServiceRouter router(svc);
  const core::MeasurementSet full = campaign(6, 9);
  const core::MeasurementSet head = full.truncated(8);
  const std::string head_csv = csv_text(head);
  const auto render_of = [&](const core::MeasurementSet& ms) {
    return core::render_prediction(core::predict(ms, serving_config()));
  };

  // A campaign append erases the superseded hash, record and all.
  ASSERT_EQ(router.handle(predict_request(head_csv, "/v1/campaigns/c", "PUT"))
                .status,
            201);
  ASSERT_EQ(router.handle(predict_request("", "/v1/campaigns/c", "GET"))
                .status,
            200);
  ASSERT_EQ(pool_answer(router, head_csv).status, 200);  // a hit keeps
  EXPECT_EQ(record_bytes(svc), render_of(head).size());
  const std::string delta_csv = csv_text(last_point(full));
  ASSERT_EQ(router.handle(predict_request(delta_csv, "/v1/campaigns/c/points"))
                .status,
            200);
  EXPECT_EQ(svc.stats().cache.invalidations, 1u);
  EXPECT_EQ(record_bytes(svc), 0u) << "the append's erase kept the record";
  EXPECT_FALSE(loop_answer(router, head_csv).has_value()) << "erased";
  const std::string full_csv = csv_text(full);
  EXPECT_EQ(pool_answer(router, full_csv).body, render_of(full))
      << "renders again";
  EXPECT_EQ(record_bytes(svc), render_of(full).size());

  // LRU eviction (capacity 2): two other campaigns push it out.
  ASSERT_EQ(pool_answer(router, csv_text(campaign(7, 8))).status, 200);
  ASSERT_EQ(pool_answer(router, csv_text(campaign(8, 8))).status, 200);
  EXPECT_EQ(svc.stats().cache.evictions, 1u);
  EXPECT_EQ(record_bytes(svc), 0u) << "eviction kept the record";
  EXPECT_FALSE(loop_answer(router, full_csv).has_value()) << "evicted";

  // A put over a resident key (snapshot restore) drops the record.
  const std::string b_csv = csv_text(campaign(8, 8));
  ASSERT_EQ(pool_answer(router, b_csv).status, 200);
  const std::uint64_t b_bytes = record_bytes(svc);
  ASSERT_GT(b_bytes, 0u);
  const fs::path path = fs::temp_directory_path() / "estima_kept_record.snap";
  (void)svc.snapshot_to(path.string());
  (void)svc.restore_from(path.string());
  fs::remove(path);
  EXPECT_EQ(record_bytes(svc), 0u) << "restore kept a record";
  EXPECT_FALSE(loop_answer(router, b_csv).has_value()) << "restore kept a body";
  EXPECT_EQ(pool_answer(router, b_csv).body, render_of(campaign(8, 8)))
      << "renders again";
  EXPECT_EQ(record_bytes(svc), b_bytes);
}

TEST(KeptRecords, OnlyAPredictHitKeepsARecord) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const std::string a = csv_text(campaign(1, 8));
  const std::string b = csv_text(campaign(2, 8));
  const auto stats_record_bytes = [&] {
    const std::string json = router.handle(predict_request("", "/v1/stats",
                                                           "GET"))
                                 .body;
    const std::size_t at = json.find("\"record_bytes\": ");
    EXPECT_NE(at, std::string::npos) << json;
    return at == std::string::npos
               ? ~0ull
               : std::strtoull(json.c_str() + at + 16, nullptr, 10);
  };

  // Misses, then a batch of hits.
  ASSERT_EQ(pool_answer(router, a).status, 200);
  ASSERT_EQ(pool_answer(router, b).status, 200);
  ASSERT_EQ(router.handle(predict_request(frame_bodies({a, b, a}, "campaign"),
                                          "/v1/predict_batch"))
                .status,
            200);
  EXPECT_EQ(stats_record_bytes(), 0u) << "a miss or a batch kept a record";

  // A campaign's PUT, GETs and append.
  const core::MeasurementSet full = campaign(9, 9);
  ASSERT_EQ(router.handle(predict_request(csv_text(full.truncated(8)),
                                          "/v1/campaigns/s", "PUT"))
                .status,
            201);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(router.handle(predict_request("", "/v1/campaigns/s", "GET"))
                  .status,
              200);
  }
  ASSERT_EQ(router.handle(predict_request(csv_text(last_point(full)),
                                          "/v1/campaigns/s/points"))
                .status,
            200);
  ASSERT_EQ(router.handle(predict_request("", "/v1/campaigns/s", "GET"))
                .status,
            200);
  EXPECT_EQ(stats_record_bytes(), 0u)
      << "a campaign GET or append kept a record";

  // A /v1/predict hit keeps one, a deadline header or not; later hits on
  // either path serve the same bytes.
  auto with_deadline = predict_request(a);
  with_deadline.headers.emplace_back("x-estima-deadline-ms", "600000");
  const net::HttpResponse hit = router.handle(with_deadline);
  ASSERT_EQ(hit.status, 200);
  EXPECT_EQ(stats_record_bytes(), hit.body.size());
  const auto on_loop = loop_answer(router, a);
  ASSERT_TRUE(on_loop.has_value());
  EXPECT_EQ(on_loop->body, hit.body);
  EXPECT_EQ(pool_answer(router, a).body, hit.body);
  EXPECT_EQ(stats_record_bytes(), hit.body.size());

  const std::string metrics =
      router.handle(predict_request("", "/v1/metrics", "GET")).body;
  EXPECT_FALSE(obs::validate_prometheus_text(metrics).has_value());
  EXPECT_NE(metrics.find("\nestima_cache_record_bytes " +
                         std::to_string(hit.body.size()) + "\n"),
            std::string::npos);
}

// Two handler threads answer one key's first hits at the same moment:
// both render, the first keep wins, and every answer is the same bytes.
// Each round restores the cache from a snapshot, which replaces the entry
// with a fresh object and no record. Runs under TSan in CI.
TEST(KeptRecords, TwoPoolHitsRacingOneKeyKeepExactlyOneRecord) {
  namespace fs = std::filesystem;
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const core::MeasurementSet ms = campaign(5, 8);
  const std::string body = csv_text(ms);
  const std::string expected =
      core::render_prediction(core::predict(ms, serving_config()));
  ASSERT_EQ(pool_answer(router, body).status, 200);
  const fs::path path = fs::temp_directory_path() / "estima_keep_race.snap";
  (void)svc.snapshot_to(path.string());

  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    (void)svc.restore_from(path.string());
    ASSERT_EQ(record_bytes(svc), 0u);
    std::atomic<int> ready{0};
    std::string answers[2];
    std::vector<std::thread> pool;
    for (int t = 0; t < 2; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        answers[t] = pool_answer(router, body).body;
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(answers[0], expected) << "round " << round;
    EXPECT_EQ(answers[1], expected) << "round " << round;
    EXPECT_EQ(record_bytes(svc), expected.size()) << "round " << round;
    const auto repeat = loop_answer(router, body);
    ASSERT_TRUE(repeat.has_value()) << "round " << round;
    EXPECT_EQ(repeat->body, expected) << "round " << round;
  }
  fs::remove(path);
}

/// The repeat sequence: a miss, the plain hit three times (the pool
/// renders and keeps on the first, the loop copies on the other two),
/// then a hit with a deadline header (the pool serves the kept record).
SequenceResult run_repeat_sequence(bool loop_answers) {
  const auto log_path = std::filesystem::temp_directory_path() /
                        (loop_answers ? "estima_repeat_parity_loop.jsonl"
                                      : "estima_repeat_parity_pool.jsonl");
  std::filesystem::remove(log_path);
  const std::string a = csv_text(campaign(3, 8));
  ServedService s(loop_answers, log_path.string());
  SequenceResult out;
  const auto record = [&](const net::HttpResponse& r) {
    out.bodies.push_back(std::to_string(r.status) + " " + r.body);
  };
  for (int i = 0; i < 4; ++i) record(s.post(a));
  record(s.post(a, {{"x-estima-deadline-ms", "600000"}}));
  out.books = books_of(s.svc);
  out.kept = kept_of(s.svc);
  out.server = s.server->stats();
  out.log = s.stop_and_read_log();
  std::filesystem::remove(log_path);
  return out;
}

TEST(LoopHits, RepeatedHitsServedFromTheKeptRecordMatchThePoolOnlyPath) {
  const SequenceResult pool = run_repeat_sequence(false);
  const SequenceResult loop = run_repeat_sequence(true);
  EXPECT_EQ(loop.bodies, pool.bodies);
  EXPECT_EQ(loop.books, pool.books);
  EXPECT_EQ(loop.kept, pool.kept);
  EXPECT_EQ(loop.log, pool.log);
  ASSERT_EQ(pool.bodies.size(), 5u);
  EXPECT_EQ(pool.log.size(), 5u) << "one event line per request";
  EXPECT_EQ(pool.books, (Books{5, 4, 1, 0, 1}));
  for (const std::string& b : pool.bodies) EXPECT_EQ(b, pool.bodies[0]);
  EXPECT_EQ(pool.kept, (Kept{pool.bodies[0].size() - 4,
                             csv_text(campaign(3, 8)).size()}));
  EXPECT_EQ(pool.server.requests_answered_on_loop, 0u);
  EXPECT_EQ(loop.server.requests_answered_on_loop, 2u);
}

// The loop's bound is the router's: a body of exactly kMaxKeptBodyBytes is
// kept by its pool hit and answered on the loop after; one byte more is
// never kept, so the pool answers every repeat of it. Kept past the
// router (the service has no bound of its own), a body above the bound is
// still declined by the loop before it is digested.
TEST(LoopHits, BodiesAboveTheBoundAreNeverKeptNorAnsweredOnTheLoop) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const core::MeasurementSet ms = campaign(6, 8);
  const std::string body = csv_text(ms);
  const auto padded_to = [&](std::size_t size) {
    return body + "#" + std::string(size - body.size() - 2, 'p') + "\n";
  };
  const std::string at_bound = padded_to(ServiceRouter::kMaxKeptBodyBytes);
  const std::string over = padded_to(ServiceRouter::kMaxKeptBodyBytes + 1);
  const std::string expected = pool_answer(router, body).body;  // miss
  bool on_loop = true;
  EXPECT_EQ(serve(router, at_bound, &on_loop).body, expected);
  EXPECT_FALSE(on_loop) << "a first hit";
  EXPECT_EQ(body_bytes(svc), at_bound.size());
  EXPECT_EQ(serve(router, at_bound, &on_loop).body, expected);
  EXPECT_TRUE(on_loop) << "a body at the bound";
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(serve(router, over, &on_loop).body, expected);
    EXPECT_FALSE(on_loop) << "a body above the bound, repeat " << i;
  }
  EXPECT_EQ(body_bytes(svc), at_bound.size()) << "kept a body above the bound";

  const std::uint64_t key = svc.hash_of(ms);
  ASSERT_TRUE(svc.keep_record(key, svc.answer(key, ms), expected, over,
                              digest_of(over)));
  EXPECT_EQ(body_bytes(svc), over.size());
  const Books before = books_of(svc);
  EXPECT_FALSE(loop_answer(router, over).has_value());
  EXPECT_EQ(books_of(svc), before);
}


// ---------------------------------------------------------------------------
// Kept bodies: the pool's keep also stores the request body that named the
// entry, and a later byte-equal body is answered on the loop from it
// without parsing or hashing. Nothing but exact bytes finds it, an entry
// keeps the body of its latest keep, and it dies with its entry.

TEST(ResultCache, KeptBodiesAreFoundOnlyByTheirExactBytes) {
  ResultCache cache(2);
  auto rec = std::make_shared<const std::string>("record\n");
  const auto one = pred(1);
  const auto two = pred(2);
  cache.put(1, one);
  cache.put(2, two);
  ASSERT_TRUE(cache.keep_record(1, one.get(), rec, "body-one", 42));
  EXPECT_EQ(cache.stats().body_bytes, 8u);

  // Another body under the same digest: not served, nothing counted.
  std::uint64_t key = 0;
  CacheStats before = cache.stats();
  EXPECT_EQ(cache.get_by_body(42, "body-two", &key).prediction, nullptr);
  EXPECT_EQ(cache.get_by_body(42, "body-on", &key).prediction, nullptr);
  EXPECT_EQ(cache.get_by_body(7, "body-one", &key).prediction, nullptr);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);

  // The exact bytes: a hit with the key, the record and fresh recency
  // (2 is least recently used now, so 3 evicts it, not 1).
  const CachedAnswer hit = cache.get_by_body(42, "body-one", &key);
  EXPECT_EQ(hit.prediction, one);
  EXPECT_EQ(hit.record, rec);
  EXPECT_EQ(key, 1u);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  cache.put(3, pred(3));
  EXPECT_NE(cache.get(1).prediction, nullptr);
  EXPECT_EQ(cache.get(2).prediction, nullptr);

  // A second entry whose body collides on the digest keeps its record
  // but no body, and the first body still answers only its own bytes.
  const auto three = cache.get(3).prediction;
  EXPECT_TRUE(cache.keep_record(3, three.get(), rec, "body-two", 42));
  EXPECT_NE(cache.get(3).record, nullptr);
  EXPECT_EQ(cache.stats().body_bytes, 8u);
  EXPECT_EQ(cache.get_by_body(42, "body-two", &key).prediction, nullptr);
  EXPECT_EQ(cache.get_by_body(42, "body-one", &key).prediction, one);
}

// An entry keeps the body of its latest keep: a different body replaces
// the kept one and frees its digest slot, unless another entry holds the
// new digest. The record stays the first one kept, and a body is kept
// only beside a record.
TEST(ResultCache, AKeepReplacesADifferentBodyAndFreesItsSlot) {
  ResultCache cache(2);
  auto rec = std::make_shared<const std::string>("record\n");
  const auto one = pred(1);
  const auto two = pred(2);
  cache.put(1, one);
  cache.put(2, two);
  std::uint64_t key = 0;
  ASSERT_TRUE(cache.keep_record(1, one.get(), rec, "crlf-body", 10));
  EXPECT_FALSE(cache.keep_record(1, one.get(), nullptr, "crlf-body", 10))
      << "the same body again";
  EXPECT_TRUE(cache.keep_record(
      1, one.get(), std::make_shared<const std::string>("other\n"), "body",
      11));
  EXPECT_EQ(cache.get(1).record, rec) << "the first record keep wins";
  EXPECT_EQ(cache.stats().record_bytes, rec->size());
  EXPECT_EQ(cache.stats().body_bytes, 4u);
  EXPECT_EQ(cache.get_by_body(10, "crlf-body", &key).prediction, nullptr);
  EXPECT_EQ(cache.get_by_body(11, "body", &key).prediction, one);

  // The freed digest takes another entry's body...
  ASSERT_TRUE(cache.keep_record(2, two.get(), rec, "two-body", 10));
  EXPECT_EQ(cache.get_by_body(10, "two-body", &key).prediction, two);
  // ...and then a body under it leaves 1's kept body alone.
  EXPECT_FALSE(cache.keep_record(1, one.get(), nullptr, "collides", 10));
  EXPECT_EQ(cache.get_by_body(11, "body", &key).prediction, one);
  EXPECT_EQ(cache.stats().body_bytes, 4u + 8u);

  // Different bytes under the entry's own digest replace them in place.
  EXPECT_TRUE(cache.keep_record(1, one.get(), nullptr, "bode", 11));
  EXPECT_EQ(cache.get_by_body(11, "body", &key).prediction, nullptr);
  EXPECT_EQ(cache.get_by_body(11, "bode", &key).prediction, one);
  EXPECT_EQ(cache.stats().body_bytes, 4u + 8u);

  cache.put(1, one);  // drops 1's record and body
  EXPECT_FALSE(cache.keep_record(1, one.get(), nullptr, "body", 11))
      << "a body without a record";
  EXPECT_EQ(cache.stats().body_bytes, 8u);
}

TEST(ResultCache, EraseEvictionAndPutDropTheBodyAndFreeItsSlot) {
  ResultCache cache(1);
  auto rec = std::make_shared<const std::string>("record\n");
  std::uint64_t key = 0;
  // Each drop leaves no bytes counted, no lookup, and the digest free for
  // the next entry to keep its body under.
  const auto expect_dropped = [&](const char* how) {
    EXPECT_EQ(cache.stats().body_bytes, 0u) << how;
    EXPECT_EQ(cache.stats().record_bytes, 0u) << how;
    EXPECT_EQ(cache.get_by_body(5, "body", &key).prediction, nullptr) << how;
  };

  auto p = pred(1);
  cache.put(1, p);
  ASSERT_TRUE(cache.keep_record(1, p.get(), rec, "body", 5));
  EXPECT_TRUE(cache.erase(1));
  expect_dropped("erase");

  p = pred(2);
  cache.put(2, p);
  ASSERT_TRUE(cache.keep_record(2, p.get(), rec, "body", 5));
  EXPECT_EQ(cache.stats().body_bytes, 4u) << "erase left the slot taken";
  cache.put(3, pred(3));  // capacity 1: evicts 2
  expect_dropped("eviction");

  p = cache.get(3).prediction;
  ASSERT_TRUE(cache.keep_record(3, p.get(), rec, "body", 5));
  EXPECT_EQ(cache.stats().body_bytes, 4u) << "eviction left the slot taken";
  cache.put(3, pred(3));  // a put over the resident key
  expect_dropped("put over a resident key");
  p = cache.get(3).prediction;
  ASSERT_TRUE(cache.keep_record(3, p.get(), rec, "body", 5));
  EXPECT_EQ(cache.stats().body_bytes, 4u) << "put left the slot taken";
  EXPECT_EQ(cache.get_by_body(5, "body", &key).prediction, p);
}

/// The body sequence, on a cache of two: misses of a and b, their first
/// hits (the pool keeps a record and a body for each), a byte-equal
/// repeat of a, a miss of c (evicting b, the least recently used only if
/// the repeat refreshed a), a's repeat again and b again (a miss).
SequenceResult run_body_sequence(bool loop_answers) {
  const auto log_path = std::filesystem::temp_directory_path() /
                        (loop_answers ? "estima_body_parity_loop.jsonl"
                                      : "estima_body_parity_pool.jsonl");
  std::filesystem::remove(log_path);
  const std::string a = csv_text(campaign(1, 8));
  const std::string b = csv_text(campaign(2, 8));
  const std::string c = csv_text(campaign(3, 8));
  ServedService s(loop_answers, log_path.string(), {}, 2);
  SequenceResult out;
  for (const std::string* body : {&a, &b, &a, &b, &a, &c, &a, &b}) {
    const net::HttpResponse r = s.post(*body);
    out.bodies.push_back(std::to_string(r.status) + " " + r.body);
  }
  out.books = books_of(s.svc);
  out.kept = kept_of(s.svc);
  out.server = s.server->stats();
  out.log = s.stop_and_read_log();
  std::filesystem::remove(log_path);
  return out;
}

TEST(LoopHits, ByteEqualRepeatsAnsweredFromTheKeptBodyMatchThePoolOnlyPath) {
  const SequenceResult pool = run_body_sequence(false);
  const SequenceResult loop = run_body_sequence(true);
  EXPECT_EQ(loop.bodies, pool.bodies);
  EXPECT_EQ(loop.books, pool.books);
  EXPECT_EQ(loop.kept, pool.kept);
  EXPECT_EQ(loop.log, pool.log);
  ASSERT_EQ(pool.bodies.size(), 8u);
  EXPECT_EQ(pool.books, (Books{8, 4, 4, 0, 4}));
  EXPECT_EQ(pool.bodies[2], pool.bodies[0]);
  EXPECT_EQ(pool.bodies[4], pool.bodies[0]);
  EXPECT_EQ(pool.bodies[6], pool.bodies[0]);
  EXPECT_EQ(pool.bodies[7], pool.bodies[1]);
  EXPECT_EQ(loop.server.requests_answered_on_loop, 2u);
  // Only a's body is left: b's died with its evicted entry, and b's
  // recomputed entry has had no hit yet.
  EXPECT_EQ(pool.kept.bodies, csv_text(campaign(1, 8)).size());
}

TEST(KeptBodies, APoolHitKeepsTheBodyThatNamedTheEntry) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const core::MeasurementSet ms = campaign(3, 8);
  const std::string body = csv_text(ms);
  std::uint64_t key = 0;
  ASSERT_EQ(pool_answer(router, body).status, 200);  // miss
  EXPECT_EQ(svc.lookup_body(digest_of(body), body, &key).prediction, nullptr)
      << "a miss kept the body";
  EXPECT_FALSE(loop_answer(router, body).has_value());
  ASSERT_EQ(pool_answer(router, body).status, 200);  // hit
  EXPECT_EQ(body_bytes(svc), body.size());
  const ServiceStats before = svc.stats();
  EXPECT_EQ(before.campaigns_submitted, 2u) << "a body miss counted";

  const auto first = loop_answer(router, body);
  ASSERT_TRUE(first.has_value());
  const auto again = loop_answer(router, body);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->body, first->body);
  EXPECT_EQ(body_bytes(svc), body.size()) << "a repeat kept a second body";

  const CachedAnswer hit = svc.lookup_body(digest_of(body), body, &key);
  ASSERT_NE(hit.prediction, nullptr);
  EXPECT_EQ(key, svc.hash_of(ms));
  ASSERT_NE(hit.record, nullptr);
  EXPECT_EQ(*hit.record, first->body);
  // Counted as answer() counts a hit: one submitted campaign, one hit.
  const ServiceStats after = svc.stats();
  EXPECT_EQ(after.campaigns_submitted, before.campaigns_submitted + 3);
  EXPECT_EQ(after.cache.hits, before.cache.hits + 3);
  EXPECT_EQ(after.cache.misses, before.cache.misses);
}

// An entry keeps the body of its latest pool hit, so a first hit in
// another accepted encoding (CRLF line ends, a comment row) does not
// shut the canonical bytes out of the loop for the entry's lifetime: the
// first canonical repeat after it is a pool hit that keeps its own body,
// and the repeats after that are loop answers.
TEST(KeptBodies, APoolHitReplacesAnotherEncodingOfTheKeptBody) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const std::string body = csv_text(campaign(4, 8));
  std::string crlf;
  for (const char ch : body) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  std::string commented = body;
  commented.insert(commented.find('\n', commented.find('\n') + 1) + 1,
                   "# a comment row\n");
  const std::string expected = pool_answer(router, body).body;  // miss
  bool on_loop = true;
  EXPECT_EQ(serve(router, crlf, &on_loop).body, expected);
  EXPECT_FALSE(on_loop) << "a first hit";
  EXPECT_EQ(body_bytes(svc), crlf.size());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(serve(router, body, &on_loop).body, expected);
    EXPECT_EQ(on_loop, i > 0) << "canonical repeat " << i;
  }
  EXPECT_EQ(body_bytes(svc), body.size());
  std::uint64_t key = 0;
  EXPECT_EQ(svc.lookup_body(digest_of(crlf), crlf, &key).prediction, nullptr)
      << "the replaced body still answers";

  EXPECT_EQ(serve(router, commented, &on_loop).body, expected);
  EXPECT_FALSE(on_loop);
  EXPECT_EQ(serve(router, commented, &on_loop).body, expected);
  EXPECT_TRUE(on_loop);
  EXPECT_EQ(body_bytes(svc), commented.size());
}

TEST(KeptBodies, ABodyOneDigitDifferentIsNeverServedTheKeptAnswer) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const std::string body = csv_text(campaign(5, 8));
  ASSERT_EQ(pool_answer(router, body).status, 200);  // miss
  ASSERT_EQ(pool_answer(router, body).status, 200);  // hit: keeps
  const auto kept = loop_answer(router, body);
  ASSERT_TRUE(kept.has_value());

  // The first data row's time_s, its leading digit changed.
  std::string other = body;
  const std::size_t row = other.find('\n', other.find('\n') + 1) + 1;
  char& digit = other[other.find(',', row) + 1];
  ASSERT_TRUE(digit >= '0' && digit <= '9');
  digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
  const std::string expected = core::render_prediction(
      core::predict(core::read_csv(other), serving_config()));
  ASSERT_NE(expected, kept->body);

  const Books before = books_of(svc);
  EXPECT_FALSE(loop_answer(router, other).has_value()) << "not kept";
  EXPECT_EQ(books_of(svc), before);
  EXPECT_EQ(pool_answer(router, other).body, expected);  // miss
  EXPECT_EQ(pool_answer(router, other).body, expected);  // hit: keeps
  const auto repeat = loop_answer(router, other);
  ASSERT_TRUE(repeat.has_value());
  EXPECT_EQ(repeat->body, expected);
  EXPECT_EQ(loop_answer(router, body)->body, kept->body);
  EXPECT_EQ(body_bytes(svc), body.size() + other.size());
}

TEST(KeptBodies, EraseEvictionAndPutOverAResidentKeyDropTheBody) {
  namespace fs = std::filesystem;
  PredictionService svc(ServiceConfig{serving_config(), 2});
  ServiceRouter router(svc);
  const core::MeasurementSet full = campaign(6, 9);
  const std::string head_csv = csv_text(full.truncated(8));
  std::uint64_t key = 0;
  const auto resident = [&](const std::string& body) {
    return svc.lookup_body(digest_of(body), body, &key).prediction != nullptr;
  };

  // A campaign append erases the superseded hash, body and all.
  ASSERT_EQ(router.handle(predict_request(head_csv, "/v1/campaigns/c", "PUT"))
                .status,
            201);
  ASSERT_EQ(router.handle(predict_request("", "/v1/campaigns/c", "GET"))
                .status,
            200);
  ASSERT_EQ(pool_answer(router, head_csv).status, 200);  // a hit keeps
  EXPECT_EQ(body_bytes(svc), head_csv.size());
  ASSERT_EQ(router.handle(predict_request(csv_text(last_point(full)),
                                          "/v1/campaigns/c/points"))
                .status,
            200);
  EXPECT_EQ(body_bytes(svc), 0u) << "the append's erase kept the body";
  EXPECT_FALSE(resident(head_csv));
  EXPECT_FALSE(loop_answer(router, head_csv).has_value()) << "erased";

  // LRU eviction (capacity 2).
  const std::string full_csv = csv_text(full);
  ASSERT_EQ(pool_answer(router, full_csv).status, 200);
  EXPECT_EQ(body_bytes(svc), full_csv.size());
  ASSERT_EQ(pool_answer(router, csv_text(campaign(7, 8))).status, 200);
  ASSERT_EQ(pool_answer(router, csv_text(campaign(8, 8))).status, 200);
  EXPECT_EQ(body_bytes(svc), 0u) << "eviction kept the body";
  EXPECT_FALSE(resident(full_csv));

  // A put over a resident key (snapshot restore) drops the body; the
  // next hit keeps it again under the freed digest.
  const std::string b_csv = csv_text(campaign(8, 8));
  ASSERT_EQ(pool_answer(router, b_csv).status, 200);
  ASSERT_EQ(body_bytes(svc), b_csv.size());
  const fs::path path = fs::temp_directory_path() / "estima_kept_body.snap";
  (void)svc.snapshot_to(path.string());
  (void)svc.restore_from(path.string());
  fs::remove(path);
  EXPECT_EQ(body_bytes(svc), 0u) << "restore kept a body";
  EXPECT_FALSE(resident(b_csv));
  ASSERT_EQ(pool_answer(router, b_csv).status, 200);
  EXPECT_EQ(body_bytes(svc), b_csv.size());
  EXPECT_TRUE(resident(b_csv));
}

TEST(KeptBodies, BodyBytesAreInStatsAndMetrics) {
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const std::string a = csv_text(campaign(1, 8));
  const std::string b = csv_text(campaign(2, 8));
  for (const std::string* body : {&a, &b}) {
    ASSERT_EQ(pool_answer(router, *body).status, 200);
    ASSERT_EQ(pool_answer(router, *body).status, 200);
    ASSERT_TRUE(loop_answer(router, *body).has_value());
  }
  const std::string kept = std::to_string(a.size() + b.size());
  const std::string json =
      router.handle(predict_request("", "/v1/stats", "GET")).body;
  EXPECT_NE(json.find("\"body_bytes\": " + kept), std::string::npos) << json;
  const std::string metrics =
      router.handle(predict_request("", "/v1/metrics", "GET")).body;
  EXPECT_FALSE(obs::validate_prometheus_text(metrics).has_value());
  EXPECT_NE(metrics.find("\nestima_cache_body_bytes " + kept + "\n"),
            std::string::npos);
}

// Two handler threads answer one key's first hits at the same moment, one
// with the canonical body and one with a CRLF copy: both render, the
// first record keep wins, and the entry keeps exactly one of the two
// bodies, whose digest alone finds it. Each round restores the cache from
// a snapshot, which replaces the entry with a fresh object and nothing
// kept. Runs under TSan in CI.
TEST(KeptBodies, TwoPoolHitsRacingOneKeyKeepExactlyOneBody) {
  namespace fs = std::filesystem;
  PredictionService svc(ServiceConfig{serving_config(), 64});
  ServiceRouter router(svc);
  const core::MeasurementSet ms = campaign(5, 8);
  const std::string body = csv_text(ms);
  std::string crlf;
  for (const char ch : body) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  const std::string* const bodies[2] = {&body, &crlf};
  const std::string expected =
      core::render_prediction(core::predict(ms, serving_config()));
  ASSERT_EQ(pool_answer(router, body).status, 200);
  const fs::path path = fs::temp_directory_path() / "estima_body_race.snap";
  (void)svc.snapshot_to(path.string());

  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    (void)svc.restore_from(path.string());
    ASSERT_EQ(kept_of(svc), (Kept{0, 0}));
    std::atomic<int> ready{0};
    std::string answers[2];
    std::vector<std::thread> pool;
    for (int t = 0; t < 2; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        answers[t] = pool_answer(router, *bodies[t]).body;
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(answers[0], expected) << "round " << round;
    EXPECT_EQ(answers[1], expected) << "round " << round;
    const bool canonical = loop_answer(router, body).has_value();
    const bool other = loop_answer(router, crlf).has_value();
    EXPECT_NE(canonical, other) << "round " << round;
    EXPECT_EQ(kept_of(svc),
              (Kept{expected.size(), canonical ? body.size() : crlf.size()}))
        << "round " << round;
  }
  fs::remove(path);
}

}  // namespace
}  // namespace estima::service
