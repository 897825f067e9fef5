// The snapshot format's trust anchor: property-tests the bit-exact
// Prediction round-trip over ~200 randomized campaigns/configs, fuzzes the
// loader with truncation and byte flips (it must skip or reject, never
// crash, and never surface a wrong answer), and races snapshot_to against
// four serving threads.
#include "service/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/hash.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "legacy_writers.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::service {
namespace {

namespace fs = std::filesystem;
using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

// ---------------------------------------------------------------------------
// Bit-level comparators. EXPECT_EQ on doubles would call NaN != NaN and
// -0.0 == +0.0; a restored cache entry must match the saved one bit for
// bit, so compare the underlying u64 patterns.

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_bits_eq(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits_of(a[i]), bits_of(b[i])) << what << '[' << i << ']';
  }
}

void expect_fn_exact(const core::FittedFunction& a,
                     const core::FittedFunction& b, const std::string& what) {
  EXPECT_EQ(a.type, b.type) << what;
  EXPECT_EQ(bits_of(a.y_scale), bits_of(b.y_scale)) << what;
  expect_bits_eq(a.params, b.params, what + ".params");
}

/// Every field, answer and work accounting alike: a snapshot restores the
/// cached Prediction exactly as it was.
void expect_prediction_exact(const core::Prediction& a,
                             const core::Prediction& b) {
  EXPECT_EQ(a.cores, b.cores);
  expect_bits_eq(a.time_s, b.time_s, "time_s");
  expect_bits_eq(a.stalls_per_core, b.stalls_per_core, "stalls_per_core");
  expect_fn_exact(a.factor_fn, b.factor_fn, "factor_fn");
  EXPECT_EQ(bits_of(a.factor_correlation), bits_of(b.factor_correlation));
  EXPECT_EQ(bits_of(a.freq_scale), bits_of(b.freq_scale));
  EXPECT_EQ(a.factor_stats.candidates_attempted,
            b.factor_stats.candidates_attempted);
  EXPECT_EQ(a.factor_stats.fits_executed, b.factor_stats.fits_executed);
  EXPECT_EQ(a.factor_stats.duplicate_fits_eliminated,
            b.factor_stats.duplicate_fits_eliminated);
  EXPECT_EQ(a.factor_stats.realism_variants, b.factor_stats.realism_variants);
  EXPECT_EQ(a.factor_stats.variant_refits_avoided,
            b.factor_stats.variant_refits_avoided);
  EXPECT_EQ(a.factor_used_relaxed_realism, b.factor_used_relaxed_realism);
  ASSERT_EQ(a.categories.size(), b.categories.size());
  for (std::size_t i = 0; i < a.categories.size(); ++i) {
    const auto& ca = a.categories[i];
    const auto& cb = b.categories[i];
    const std::string what = "category[" + std::to_string(i) + "]";
    EXPECT_EQ(ca.name, cb.name) << what;
    EXPECT_EQ(ca.domain, cb.domain) << what;
    expect_bits_eq(ca.values, cb.values, what + ".values");
    expect_fn_exact(ca.extrapolation.best, cb.extrapolation.best,
                    what + ".best");
    EXPECT_EQ(bits_of(ca.extrapolation.checkpoint_rmse),
              bits_of(cb.extrapolation.checkpoint_rmse))
        << what;
    EXPECT_EQ(ca.extrapolation.chosen_prefix, cb.extrapolation.chosen_prefix);
    EXPECT_EQ(ca.extrapolation.chosen_checkpoints,
              cb.extrapolation.chosen_checkpoints);
    EXPECT_EQ(ca.extrapolation.candidates_considered,
              cb.extrapolation.candidates_considered);
    EXPECT_EQ(ca.extrapolation.candidates_realistic,
              cb.extrapolation.candidates_realistic);
    EXPECT_EQ(ca.extrapolation.fits_executed, cb.extrapolation.fits_executed);
    EXPECT_EQ(ca.extrapolation.duplicate_fits_eliminated,
              cb.extrapolation.duplicate_fits_eliminated);
  }
}

// ---------------------------------------------------------------------------
// Randomized campaign generation (deterministic: seeded mt19937).

core::MeasurementSet random_campaign(std::mt19937& rng, int tag) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  SyntheticSpec spec;
  spec.work_cycles = 1e9 * std::pow(10.0, u(rng));  // 1e9 .. 1e10
  spec.serial_frac = 0.001 + 0.03 * u(rng);
  spec.mem_rate = 0.1 + 0.4 * u(rng);
  spec.mem_growth = 0.005 + 0.04 * u(rng);
  spec.lock_rate = u(rng) < 0.3 ? 1e-5 * u(rng) : 0.0;
  spec.stm_rate = u(rng) < 0.5 ? 2e-4 * u(rng) : 0.0;
  spec.noise = 0.05 * u(rng);
  spec.freq_ghz = 1.0 + 2.0 * u(rng);
  const int points = 8 + static_cast<int>(u(rng) * 5.0);  // 8 .. 12
  return make_synthetic(spec, counts_up_to(points),
                        ("rand-campaign-" + std::to_string(tag)).c_str());
}

/// Randomized-but-deterministic config variants: the property test covers
/// several distinct prediction configs, not one.
core::PredictionConfig config_variant(int v) {
  core::PredictionConfig cfg;
  switch (v % 4) {
    case 0:
      cfg.target_cores = core::cores_up_to(32);
      break;
    case 1:
      cfg.target_cores = core::cores_up_to(48);
      cfg.include_frontend = true;
      break;
    case 2:
      cfg.target_cores = core::cores_up_to(40);
      cfg.aggregate_mode = true;
      cfg.dataset_scale = 1.5;
      break;
    default:
      cfg.target_cores = core::cores_up_to(36);
      cfg.use_software_stalls = false;
      cfg.target_freq_ghz = 2.5;
      break;
  }
  return cfg;
}

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Prediction record round-trip: adversarial values the CSV seam never
// carries (inf, nan, -0.0, denormals, names with spaces and commas).

TEST(PredictionIo, RoundTripsExtremeValuesBitExact) {
  core::Prediction p;
  p.cores = {1, 2, 48};
  p.time_s = {-0.0, std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::denorm_min()};
  p.stalls_per_core = {std::numeric_limits<double>::quiet_NaN(),
                       -std::numeric_limits<double>::infinity(), 1.0 / 3.0};
  p.factor_fn.type = core::KernelType::kRat23;
  p.factor_fn.params = {1.5e308, -2.2250738585072014e-308, 0.1, 3.0, -4.0,
                        5.5};
  p.factor_fn.y_scale = 1e12;
  p.factor_correlation = -0.9999999999999999;
  p.freq_scale = 0.75;
  p.factor_stats = {12345678901234567ull, 42, 7, 2, 99};
  p.factor_used_relaxed_realism = true;
  core::CategoryPrediction cat;
  cat.name = "0D6h Dispatch Stall, for RS Full";  // spaces and a comma
  cat.domain = core::StallDomain::kSoftware;
  cat.values = {0.0, -0.0, 9.87654321e300};
  cat.extrapolation.best.type = core::KernelType::kExpRat;
  cat.extrapolation.best.params = {0.1, 0.2, 0.3};
  cat.extrapolation.checkpoint_rmse = 5e-324;  // smallest denormal
  cat.extrapolation.chosen_prefix = 7;
  cat.extrapolation.chosen_checkpoints = 4;
  cat.extrapolation.candidates_considered = 100;
  cat.extrapolation.candidates_realistic = 60;
  cat.extrapolation.fits_executed = 55;
  cat.extrapolation.duplicate_fits_eliminated = 45;
  p.categories.push_back(cat);
  // A category that fell back to the constant extension keeps a
  // default-constructed (empty-params) fitted function.
  core::CategoryPrediction fallback;
  fallback.name = "empty_fit";
  fallback.values = {1.0, 2.0, 3.0};
  p.categories.push_back(fallback);

  std::stringstream ss;
  core::write_prediction(ss, p);
  const auto q = core::read_prediction(ss);
  expect_prediction_exact(p, q);

  // Two records share one stream cleanly.
  std::stringstream two;
  core::write_prediction(two, p);
  core::write_prediction(two, p);
  expect_prediction_exact(p, core::read_prediction(two));
  expect_prediction_exact(p, core::read_prediction(two));
}

TEST(PredictionIo, RejectsMalformedRecords) {
  core::Prediction p;
  p.cores = {1, 2};
  p.time_s = {1.0, 2.0};
  p.stalls_per_core = {3.0, 4.0};
  std::ostringstream os;
  core::write_prediction(os, p);
  const std::string good = os.str();

  const auto expect_reject = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW(core::read_prediction(is), std::invalid_argument) << text;
  };
  expect_reject("");
  expect_reject("prediction v=2\n");
  expect_reject(good.substr(0, good.size() / 2));            // truncated
  expect_reject([&] {                                        // bad cell
    std::string t = good;
    t.replace(t.find("time_s 2 1"), 10, "time_s 2 x");
    return t;
  }());
  expect_reject([&] {  // inconsistent series length
    std::string t = good;
    t.replace(t.find("stalls_per_core 2"), 17, "stalls_per_core 1");
    return t;
  }());
  expect_reject([&] {  // overflow: a typo'd exponent must not load as inf
    std::string t = good;
    t.replace(t.find("time_s 2 1"), 10, "time_s 2 1e999");
    return t;
  }());
}

// ---------------------------------------------------------------------------
// Tentpole property test: predict -> snapshot -> restore in a fresh
// service must be bit-identical with a 100% restore hit rate, across ~200
// randomized campaigns and 4 prediction configs.

TEST(SnapshotRoundTrip, TwoHundredRandomizedCampaignsRestoreBitIdentical) {
  const fs::path dir = fresh_dir("estima_snapshot_roundtrip");
  std::mt19937 rng(20260731u);
  parallel::ThreadPool pool(parallel::ThreadPool::hardware_threads());

  constexpr int kVariants = 4;
  constexpr int kPerVariant = 50;  // 4 x 50 = 200 randomized campaigns
  for (int v = 0; v < kVariants; ++v) {
    std::vector<core::MeasurementSet> batch;
    for (int i = 0; i < kPerVariant; ++i) {
      batch.push_back(random_campaign(rng, v * kPerVariant + i));
    }

    ServiceConfig scfg;
    scfg.prediction = config_variant(v);
    PredictionService warm(scfg, &pool);
    const auto first = warm.predict_many(batch);
    ASSERT_EQ(first.size(), batch.size());

    const std::string path =
        (dir / ("v" + std::to_string(v) + ".snapshot")).string();
    const auto written = warm.snapshot_to(path);
    EXPECT_EQ(written.entries_written, static_cast<std::size_t>(kPerVariant));

    // A fresh service — the "restarted process" — restored from disk.
    PredictionService restored(scfg, &pool);
    const auto report = restored.restore_from(path);
    EXPECT_EQ(report.entries_loaded(), static_cast<std::size_t>(kPerVariant));
    EXPECT_TRUE(report.skipped.empty());
    EXPECT_FALSE(report.truncated);

    const auto before = restored.stats();
    EXPECT_EQ(before.snapshot_entries_restored,
              static_cast<std::uint64_t>(kPerVariant));
    EXPECT_EQ(before.snapshot_entries_skipped, 0u);

    const auto second = restored.predict_many(batch);
    const auto after = restored.stats();
    // 100% restore hit rate: no recomputation, not a single cache miss.
    EXPECT_EQ(after.predictions_computed, 0u) << "variant " << v;
    EXPECT_EQ(after.cache.misses, 0u) << "variant " << v;
    EXPECT_EQ(after.cache.hits, static_cast<std::uint64_t>(kPerVariant))
        << "variant " << v;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_prediction_exact(first[i], second[i]);
    }
  }
  fs::remove_all(dir);
}

TEST(SnapshotRoundTrip, PayloadsAreTheLegacyRecordBytes) {
  // A v1 payload is one `prediction v=1` record, and its bytes are pinned
  // to the legacy ostream writer (tests/legacy_writers.hpp): snapshots
  // written before and after the to_chars renderer are the same file.
  const fs::path dir = fresh_dir("estima_snapshot_payload_bytes");
  std::mt19937 rng(20261017u);
  std::vector<core::MeasurementSet> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(random_campaign(rng, i));
  ServiceConfig scfg;
  scfg.prediction = config_variant(0);
  PredictionService svc(scfg);
  const auto preds = svc.predict_many(batch);
  const std::string path = (dir / "payload.snapshot").string();
  ASSERT_EQ(svc.snapshot_to(path).entries_written, batch.size());

  std::ifstream is(path, std::ios::binary);
  std::ostringstream content;
  content << is.rdbuf();
  const std::string file = content.str();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::string record = testing::legacy_record(preds[i]);
    const std::string framed =
        " len=" + std::to_string(record.size()) + " crc=";
    const std::size_t at = file.find(record);
    ASSERT_NE(at, std::string::npos) << "campaign " << i;
    const std::size_t frame = file.rfind("#entry ", at);
    ASSERT_NE(frame, std::string::npos);
    EXPECT_NE(file.substr(frame, at - frame).find(framed), std::string::npos)
        << "campaign " << i;
  }
  fs::remove_all(dir);
}

TEST(SnapshotRoundTrip, RestoreRejectsForeignConfigSnapshot) {
  const fs::path dir = fresh_dir("estima_snapshot_foreign");
  std::mt19937 rng(7u);
  ServiceConfig scfg;
  scfg.prediction = config_variant(0);
  PredictionService svc(scfg);
  svc.predict_one(random_campaign(rng, 0));
  const std::string path = (dir / "a.snapshot").string();
  svc.snapshot_to(path);

  ServiceConfig other;
  other.prediction = config_variant(1);
  PredictionService mismatched(other);
  EXPECT_THROW(mismatched.restore_from(path), std::runtime_error);
  EXPECT_THROW(mismatched.restore_from((dir / "missing.snapshot").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Forward compatibility, locked in from the reader's side: the ROADMAP's
// version-bump rule says a future writer extends the format by bumping
// v=, never by sneaking in extra header tokens a v1 reader would have to
// guess about. Both escape hatches must therefore be shut: a v=2 file and
// a v=1 file with an unknown extra header token are rejected whole — even
// when their header checksums are valid, so it is the *grammar*, not the
// crc, doing the rejecting.

TEST(SnapshotForwardCompat, FutureVersionAndUnknownHeaderTokensAreRejected) {
  const fs::path dir = fresh_dir("estima_snapshot_forward");
  // An empty snapshot whose header is `head` + a correctly computed hcrc.
  const auto craft = [](const std::string& head) {
    core::Fnv1a h;
    h.bytes(head.data(), head.size());
    char hcrc[32];
    std::snprintf(hcrc, sizeof hcrc, " hcrc=%016" PRIx64 "\n", h.value());
    return head + hcrc + "#end\n";
  };
  const char kV1Head[] =
      "#estima-snapshot v=1 config_signature=0123456789abcdef entries=0";

  // Control: the crafted v=1 file is genuinely loadable, so the
  // rejections below test the intended check and not a crafting mistake.
  write_file(dir / "ok.snapshot", craft(kV1Head));
  const auto ok = load_snapshot((dir / "ok.snapshot").string());
  EXPECT_EQ(ok.entries_loaded(), 0u);
  EXPECT_FALSE(ok.truncated);

  // v=2 with a valid checksum: rejected by the version gate.
  write_file(dir / "v2.snapshot",
             craft("#estima-snapshot v=2 "
                   "config_signature=0123456789abcdef entries=0"));
  EXPECT_THROW(load_snapshot((dir / "v2.snapshot").string()),
               std::runtime_error);

  // Unknown token before hcrc (checksum covers it, so hcrc is valid).
  write_file(dir / "extra_mid.snapshot",
             craft(std::string(kV1Head) + " shiny_new_field=1"));
  EXPECT_THROW(load_snapshot((dir / "extra_mid.snapshot").string()),
               std::runtime_error);

  // Unknown token *after* the hcrc value: the checksum region is
  // untouched, so only a strict end-of-header grammar can catch it.
  {
    std::string bytes = craft(kV1Head);
    const auto nl = bytes.find('\n');
    ASSERT_NE(nl, std::string::npos);
    bytes.insert(nl, " shiny_new_field=1");
    write_file(dir / "extra_tail.snapshot", bytes);
    EXPECT_THROW(load_snapshot((dir / "extra_tail.snapshot").string()),
                 std::runtime_error);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Corruption fuzzing. A pristine snapshot of 6 campaigns is damaged by
// truncation at every 64-byte boundary and by random byte flips;
// load_snapshot must never crash and every entry it does deliver must be
// the saved answer (the checksum guarantee).

struct CorpusFixture {
  std::vector<core::MeasurementSet> batch;
  core::PredictionConfig cfg;
  std::string pristine;  ///< snapshot file bytes
  std::unordered_map<std::uint64_t, core::Prediction> expected;
  std::vector<core::Prediction> predictions;  ///< aligned with batch

  explicit CorpusFixture(const fs::path& dir) {
    std::mt19937 rng(99u);
    cfg = config_variant(0);
    ServiceConfig scfg;
    scfg.prediction = cfg;
    PredictionService svc(scfg);
    for (int i = 0; i < 6; ++i) batch.push_back(random_campaign(rng, i));
    predictions = svc.predict_many(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expected.emplace(svc.hash_of(batch[i]), predictions[i]);
    }
    const fs::path path = dir / "pristine.snapshot";
    svc.snapshot_to(path.string());
    pristine = read_file(path);
  }
};

void expect_loaded_entries_are_saved_answers(
    const SnapshotLoadReport& report,
    const std::unordered_map<std::uint64_t, core::Prediction>& expected) {
  for (const auto& e : report.entries) {
    auto it = expected.find(e.key);
    ASSERT_NE(it, expected.end()) << "loaded an entry with a forged key";
    expect_prediction_exact(it->second, *e.prediction);
  }
}

TEST(SnapshotCorruption, TruncationAtEvery64ByteBoundaryNeverCrashes) {
  const fs::path dir = fresh_dir("estima_snapshot_truncate");
  CorpusFixture fx(dir);
  const fs::path victim = dir / "victim.snapshot";

  // Sanity: the untouched file loads completely.
  write_file(victim, fx.pristine);
  const auto full = load_snapshot(victim.string());
  EXPECT_EQ(full.entries_loaded(), fx.expected.size());
  EXPECT_FALSE(full.truncated);
  expect_loaded_entries_are_saved_answers(full, fx.expected);

  std::size_t rejected_files = 0, partial_loads = 0;
  for (std::size_t cut = 0; cut < fx.pristine.size(); cut += 64) {
    write_file(victim, fx.pristine.substr(0, cut));
    try {
      const auto report = load_snapshot(victim.string());
      // A short file must announce itself: entries missing relative to the
      // header count, a skip record, or the truncated flag.
      EXPECT_TRUE(report.truncated || !report.skipped.empty() ||
                  report.entries_loaded() < report.entries_declared)
          << "cut at " << cut << " bytes went unnoticed";
      expect_loaded_entries_are_saved_answers(report, fx.expected);
      ++partial_loads;
    } catch (const std::runtime_error&) {
      ++rejected_files;  // header did not survive: whole-file reject is fine
    }
  }
  // Both corruption-handling modes must actually occur across the sweep.
  EXPECT_GT(rejected_files, 0u);
  EXPECT_GT(partial_loads, 0u);
  fs::remove_all(dir);
}

TEST(SnapshotCorruption, RandomByteFlipsNeverCrashAndNeverServeWrongAnswers) {
  const fs::path dir = fresh_dir("estima_snapshot_flip");
  CorpusFixture fx(dir);
  const fs::path victim = dir / "victim.snapshot";

  std::mt19937 rng(0xF11Fu);
  std::uniform_int_distribution<std::size_t> pos(0, fx.pristine.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::uniform_int_distribution<int> nflips(1, 8);

  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = fx.pristine;
    const int flips = nflips(rng);
    for (int f = 0; f < flips; ++f) {
      bytes[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    }
    write_file(victim, bytes);
    try {
      const auto report = load_snapshot(victim.string());
      // Whatever survived the flips, nothing loaded may differ from what
      // was saved — the crc must catch every damaged frame.
      expect_loaded_entries_are_saved_answers(report, fx.expected);
    } catch (const std::runtime_error&) {
      // Damaged header: rejecting the whole file is within contract.
    }
  }
  fs::remove_all(dir);
}

TEST(SnapshotCorruption, ServiceRestoredFromDamagedSnapshotStillServesCorrectly) {
  const fs::path dir = fresh_dir("estima_snapshot_damaged_restore");
  CorpusFixture fx(dir);
  const fs::path victim = dir / "victim.snapshot";

  // Cut mid-file: the header survives, a tail of entries does not.
  write_file(victim, fx.pristine.substr(0, fx.pristine.size() / 2));

  ServiceConfig scfg;
  scfg.prediction = fx.cfg;
  PredictionService svc(scfg);
  const auto report = svc.restore_from(victim.string());
  EXPECT_TRUE(report.truncated);
  const std::size_t restored = report.entries_loaded();
  ASSERT_LT(restored, fx.batch.size()) << "cut removed no entries";

  const auto before = svc.stats();
  EXPECT_EQ(before.snapshot_entries_restored,
            static_cast<std::uint64_t>(restored));
  // Every declared-but-undelivered frame is accounted for as skipped.
  EXPECT_EQ(before.snapshot_entries_restored + before.snapshot_entries_skipped,
            static_cast<std::uint64_t>(fx.batch.size()));

  // The damaged-restore service recomputes what was lost and serves every
  // campaign with the exact pre-restart answer.
  const auto out = svc.predict_many(fx.batch);
  const auto after = svc.stats();
  EXPECT_EQ(after.predictions_computed,
            static_cast<std::uint64_t>(fx.batch.size() - restored));
  for (std::size_t i = 0; i < fx.batch.size(); ++i) {
    expect_prediction_exact(fx.predictions[i], out[i]);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Concurrency stress: snapshot_to while 4 threads hammer predict_many with
// overlapping campaigns. The snapshot must contain only real, completed
// answers and the serving outputs must be unaffected.

TEST(SnapshotConcurrency, SnapshotWhileFourThreadsServeOverlappingCampaigns) {
  // A single timesliced core cannot produce the overlap this test is
  // about. (0 means "unknown", not single-core — keep the test active.)
  if (std::thread::hardware_concurrency() == 1) {
    GTEST_SKIP() << "needs >1 hardware core to race snapshot against serving";
  }
  const fs::path dir = fresh_dir("estima_snapshot_stress");
  std::mt19937 rng(0x5EEDu);

  std::vector<core::MeasurementSet> campaigns;
  for (int i = 0; i < 8; ++i) campaigns.push_back(random_campaign(rng, i));
  const auto cfg = config_variant(0);

  // Serial reference answers, computed outside the service.
  std::unordered_map<std::uint64_t, core::Prediction> expected;
  std::vector<core::Prediction> reference;
  for (const auto& ms : campaigns) reference.push_back(core::predict(ms, cfg));

  parallel::ThreadPool pool(2);
  ServiceConfig scfg;
  scfg.prediction = cfg;
  PredictionService svc(scfg, &pool);
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    expected.emplace(svc.hash_of(campaigns[i]), reference[i]);
  }

  // Start gate: every submitter registers, then all begin together once
  // `go` flips — guaranteeing the snapshot loop below actually overlaps
  // serving instead of finishing before the first thread gets scheduled.
  std::atomic<int> running{0};
  std::atomic<bool> go{false};
  std::atomic<bool> mismatch{false};
  constexpr int kSubmitters = 4;
  constexpr int kIterations = 6;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      ++running;
      while (!go.load()) std::this_thread::yield();
      // Overlapping 5-campaign windows: every pair of threads shares work.
      std::vector<core::MeasurementSet> slice;
      for (int k = 0; k < 5; ++k) {
        slice.push_back(campaigns[(t + k) % campaigns.size()]);
      }
      for (int it = 0; it < kIterations; ++it) {
        const auto out = svc.predict_many(slice);
        for (int k = 0; k < 5; ++k) {
          const auto& want = reference[(t + k) % campaigns.size()];
          if (out[k].time_s != want.time_s ||
              out[k].stalls_per_core != want.stalls_per_core) {
            mismatch = true;
          }
        }
      }
      --running;
    });
  }

  // Release the gate only once all submitters are registered, then race
  // snapshots against them for as long as they run.
  while (running.load() < kSubmitters) std::this_thread::yield();
  go = true;
  const fs::path snap = dir / "racing.snapshot";
  std::size_t snapshots_taken = 0;
  while (running.load() > 0 || snapshots_taken == 0) {
    const auto written = svc.snapshot_to(snap.string());
    ++snapshots_taken;
    EXPECT_LE(written.entries_written, campaigns.size());
    // Each racing snapshot must be internally consistent: loadable, crc
    // clean, and containing nothing but completed, correct answers.
    const auto report = load_snapshot(snap.string());
    EXPECT_TRUE(report.skipped.empty());
    EXPECT_FALSE(report.truncated);
    expect_loaded_entries_are_saved_answers(report, expected);
  }
  for (auto& th : submitters) th.join();
  EXPECT_FALSE(mismatch) << "serving outputs were disturbed by snapshotting";
  EXPECT_GE(snapshots_taken, 1u);

  // Quiescent snapshot: all 8 campaigns present, restorable, bit-exact.
  svc.snapshot_to(snap.string());
  PredictionService restored(scfg, &pool);
  const auto report = restored.restore_from(snap.string());
  EXPECT_EQ(report.entries_loaded(), campaigns.size());
  const auto out = restored.predict_many(campaigns);
  EXPECT_EQ(restored.stats().predictions_computed, 0u);
  EXPECT_EQ(restored.stats().cache.misses, 0u);
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    expect_prediction_exact(reference[i], out[i]);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace estima::service
