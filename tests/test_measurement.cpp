#include "core/measurement.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "core/text_parse.hpp"
#include "legacy_writers.hpp"
#include "parallel/thread_pool.hpp"

namespace estima::core {
namespace {

MeasurementSet sample_set() {
  MeasurementSet ms;
  ms.workload = "intruder";
  ms.machine = "opteron48";
  ms.freq_ghz = 2.1;
  ms.dataset_bytes = 1e9;
  ms.cores = {1, 2, 4, 8};
  ms.time_s = {10.0, 6.0, 4.0, 3.0};
  ms.categories.push_back(
      {"ls_full", StallDomain::kHardwareBackend, {1.0, 2.5, 6.0, 15.0}});
  ms.categories.push_back(
      {"ifetch", StallDomain::kHardwareFrontend, {0.5, 0.5, 0.6, 0.6}});
  ms.categories.push_back(
      {"stm_aborts", StallDomain::kSoftware, {0.0, 1.0, 3.0, 9.0}});
  return ms;
}

TEST(Measurement, ValidatePassesOnConsistentSet) {
  EXPECT_NO_THROW(sample_set().validate());
}

TEST(Measurement, ValidateCatchesSizeMismatch) {
  auto ms = sample_set();
  ms.time_s.pop_back();
  EXPECT_THROW(ms.validate(), std::invalid_argument);
}

TEST(Measurement, ValidateCatchesNonAscendingCores) {
  auto ms = sample_set();
  ms.cores = {1, 4, 2, 8};
  EXPECT_THROW(ms.validate(), std::invalid_argument);
}

TEST(Measurement, ValidateCatchesCategoryMismatch) {
  auto ms = sample_set();
  ms.categories[0].values.pop_back();
  EXPECT_THROW(ms.validate(), std::invalid_argument);
}

TEST(Measurement, TotalStallsRespectsDomains) {
  auto ms = sample_set();
  EXPECT_DOUBLE_EQ(ms.total_stalls_at(3, false, false), 15.0);
  EXPECT_DOUBLE_EQ(ms.total_stalls_at(3, true, false), 15.6);
  EXPECT_DOUBLE_EQ(ms.total_stalls_at(3, false, true), 24.0);
  EXPECT_DOUBLE_EQ(ms.total_stalls_at(3, true, true), 24.6);
}

TEST(Measurement, StallsPerCore) {
  auto ms = sample_set();
  auto spc = ms.stalls_per_core(false, true);
  ASSERT_EQ(spc.size(), 4u);
  EXPECT_DOUBLE_EQ(spc[0], 1.0);          // (1+0)/1
  EXPECT_DOUBLE_EQ(spc[1], 3.5 / 2.0);    // (2.5+1)/2
  EXPECT_DOUBLE_EQ(spc[3], 24.0 / 8.0);   // (15+9)/8
}

TEST(Measurement, Truncated) {
  auto ms = sample_set().truncated(2);
  EXPECT_EQ(ms.num_points(), 2u);
  EXPECT_EQ(ms.cores.back(), 2);
  for (const auto& cat : ms.categories) EXPECT_EQ(cat.values.size(), 2u);
  EXPECT_THROW(sample_set().truncated(9), std::invalid_argument);
}

TEST(Measurement, FilteredDropsDomains) {
  auto hw_only = sample_set().filtered(false, false);
  EXPECT_EQ(hw_only.categories.size(), 1u);
  auto with_sw = sample_set().filtered(false, true);
  EXPECT_EQ(with_sw.categories.size(), 2u);
  auto all = sample_set().filtered(true, true);
  EXPECT_EQ(all.categories.size(), 3u);
}

TEST(Measurement, CsvRoundTrip) {
  const auto ms = sample_set();
  std::ostringstream os;
  write_csv(os, ms);
  std::istringstream is(os.str());
  const auto back = read_csv(is);

  EXPECT_EQ(back.workload, ms.workload);
  EXPECT_EQ(back.machine, ms.machine);
  EXPECT_DOUBLE_EQ(back.freq_ghz, ms.freq_ghz);
  EXPECT_EQ(back.cores, ms.cores);
  ASSERT_EQ(back.categories.size(), ms.categories.size());
  for (std::size_t i = 0; i < ms.categories.size(); ++i) {
    EXPECT_EQ(back.categories[i].name, ms.categories[i].name);
    EXPECT_EQ(back.categories[i].domain, ms.categories[i].domain);
    for (std::size_t j = 0; j < ms.cores.size(); ++j) {
      EXPECT_DOUBLE_EQ(back.categories[i].values[j],
                       ms.categories[i].values[j]);
    }
  }
}

TEST(Measurement, FileRoundTripPreservesEverything) {
  const auto ms = sample_set();
  const std::string path = "measurement_roundtrip_test.csv";
  save_csv(path, ms);
  const auto back = load_csv(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.workload, ms.workload);
  EXPECT_EQ(back.machine, ms.machine);
  EXPECT_EQ(back.cores, ms.cores);
  // Bitwise: the serving layer keys caches on these values, so the
  // round-trip must not perturb a single bit.
  EXPECT_EQ(back.time_s, ms.time_s);
  ASSERT_EQ(back.categories.size(), ms.categories.size());
  for (std::size_t i = 0; i < ms.categories.size(); ++i) {
    EXPECT_EQ(back.categories[i].values, ms.categories[i].values);
  }
}

TEST(Measurement, CsvRejectsMisalignedRows) {
  const std::string header =
      "# workload=w machine=m freq_ghz=1\n"
      "cores,time_s,hw:a,sw:b\n";

  // A short row would silently leave category series shorter than cores.
  std::istringstream missing_cell(header + "1,1.0,2.0\n");
  EXPECT_THROW(read_csv(missing_cell), std::invalid_argument);

  // A long row would shift every later column.
  std::istringstream extra_cell(header + "1,1.0,2.0,3.0,4.0\n");
  EXPECT_THROW(read_csv(extra_cell), std::invalid_argument);

  // A trailing separator is a hidden extra (empty) cell, not noise.
  std::istringstream trailing_comma(header + "1,1.0,2.0,3.0,\n");
  EXPECT_THROW(read_csv(trailing_comma), std::invalid_argument);

  // The error must name the offending line.
  std::istringstream second_row_bad(header + "1,1.0,2.0,3.0\n2,0.5\n");
  try {
    read_csv(second_row_bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(Measurement, CsvRejectsTrailingGarbageInNumericCells) {
  const std::string header =
      "# workload=w machine=m freq_ghz=1\n"
      "cores,time_s,hw:a\n";
  // stoi/stod would silently parse the numeric prefix of these.
  std::istringstream bad_core(header + "1x,1.0,2.0\n");
  EXPECT_THROW(read_csv(bad_core), std::invalid_argument);
  std::istringstream bad_value(header + "1,1.0,2.0junk\n");
  EXPECT_THROW(read_csv(bad_value), std::invalid_argument);
  // Overflow: a typo'd exponent must be rejected, not loaded as +inf.
  std::istringstream overflow(header + "1,1.0,1e999\n");
  EXPECT_THROW(read_csv(overflow), std::invalid_argument);
}

TEST(Measurement, CsvAcceptsCrlfAndComments) {
  std::istringstream is(
      "# workload=w machine=m freq_ghz=1\n"
      "cores,time_s,hw:a\n"
      "1,1.0,2.0\r\n"
      "# a comment between rows\n"
      "2,0.6,3.0\n");
  const auto ms = read_csv(is);
  EXPECT_EQ(ms.num_points(), 2u);
  EXPECT_DOUBLE_EQ(ms.categories[0].values[1], 3.0);

  // A fully CRLF file (Windows-saved) must parse identically to LF: in
  // particular the last category name must not silently keep a '\r'.
  std::istringstream crlf(
      "# workload=w machine=m freq_ghz=1\r\n"
      "cores,time_s,hw:a\r\n"
      "1,1.0,2.0\r\n"
      "2,0.6,3.0\r\n");
  const auto back = read_csv(crlf);
  EXPECT_EQ(back.workload, "w");
  ASSERT_EQ(back.categories.size(), 1u);
  EXPECT_EQ(back.categories[0].name, "a");
  EXPECT_EQ(back.cores, ms.cores);
  EXPECT_EQ(back.time_s, ms.time_s);
}

TEST(Measurement, CsvRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(read_csv(empty), std::invalid_argument);

  std::istringstream no_prefix(
      "# workload=w machine=m\ncores,time_s,badcolumn\n1,1.0,2.0\n");
  EXPECT_THROW(read_csv(no_prefix), std::invalid_argument);

  std::istringstream bad_first(
      "# workload=w machine=m\nnotcores,time_s\n");
  EXPECT_THROW(read_csv(bad_first), std::invalid_argument);
}

TEST(Measurement, DomainNames) {
  EXPECT_EQ(stall_domain_name(StallDomain::kHardwareBackend),
            "hardware-backend");
  EXPECT_EQ(stall_domain_name(StallDomain::kHardwareFrontend),
            "hardware-frontend");
  EXPECT_EQ(stall_domain_name(StallDomain::kSoftware), "software");
}

// ---------------------------------------------------------------------------
// Writers: byte identity with the legacy ostream oracle
// (tests/legacy_writers.hpp), and independence from stream state and the
// global locale.

using testing::legacy_csv;
using testing::legacy_record;

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

FittedFunction fn_of(KernelType type, double seed) {
  FittedFunction fn;
  fn.type = type;
  fn.y_scale = seed * 3.0;
  for (std::size_t i = 0; i < kernel_param_count(type); ++i) {
    fn.params.push_back(seed / static_cast<double>(i + 1));
  }
  return fn;
}

/// Every awkward value the record can carry: NaN of both signs, both
/// infinities, -0.0, the smallest subnormal, DBL_MAX, the %g switch to an
/// exponent between 1e16 and 1e17, an empty factor function (np = 0) and
/// category names with spaces and commas.
Prediction edge_case_prediction() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Prediction p;
  p.cores = {1, 2, 48, 1000000, -7};
  p.time_s = {nan, -nan, inf, -inf, -0.0};
  p.stalls_per_core = {5e-324, DBL_MAX, 1e16, 1e17, 0.1};
  p.factor_correlation = -0.0;
  p.freq_scale = 123456789012345678.0;
  p.factor_stats.candidates_attempted = std::numeric_limits<std::size_t>::max();
  p.factor_stats.fits_executed = 0;
  p.factor_stats.duplicate_fits_eliminated = 1000;
  p.factor_stats.realism_variants = 2;
  p.factor_stats.variant_refits_avoided = 99;
  p.factor_used_relaxed_realism = true;
  // factor_fn left default-constructed: np = 0.
  CategoryPrediction a;
  a.name = "0D6h Dispatch Stall, for RS Full";
  a.domain = StallDomain::kHardwareFrontend;
  a.values = {1.5, -2.25e-300, 9007199254740993.0, 1e-5, 1e-4};
  a.extrapolation.best = fn_of(KernelType::kRat33, 0.3);
  a.extrapolation.checkpoint_rmse = nan;
  a.extrapolation.chosen_prefix = -1;
  a.extrapolation.chosen_checkpoints = std::numeric_limits<int>::min();
  a.extrapolation.candidates_considered = 12;
  a.extrapolation.candidates_realistic = 7;
  a.extrapolation.fits_executed = 5;
  a.extrapolation.duplicate_fits_eliminated = 3;
  CategoryPrediction b;
  b.name = " lead, and trail ";
  b.domain = StallDomain::kSoftware;
  b.values = {2.2250738585072014e-308, 4.9406564584124654e-324, inf, 1.0 / 3,
              -1e308};
  b.extrapolation.best = fn_of(KernelType::kExpRat, -7e22);
  p.categories = {a, b};
  return p;
}

std::string written(const Prediction& p) {
  std::ostringstream os;
  write_prediction(os, p);
  return os.str();
}

std::string written_csv(const MeasurementSet& ms) {
  std::ostringstream os;
  write_csv(os, ms);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Decimal comma and apostrophe digit grouping: a locale in which an
/// ostream writes "6,3048" and "1'809'115'088".
struct CommaNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '\''; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a global locale for one scope; streams constructed inside it
/// imbue it by default.
class GlobalLocale {
 public:
  explicit GlobalLocale(const std::locale& loc)
      : saved_(std::locale::global(loc)) {}
  ~GlobalLocale() { std::locale::global(saved_); }

 private:
  std::locale saved_;
};

TEST(PredictionWriter, EdgeCasesAreByteEqualToTheLegacyWriterAndRoundTrip) {
  const Prediction p = edge_case_prediction();
  const std::string want = legacy_record(p);
  ASSERT_NE(want.find(" nan -nan inf -inf -0\n"), std::string::npos) << want;
  ASSERT_NE(want.find("factor_fn CubicLn 1 0\n"), std::string::npos) << want;
  EXPECT_EQ(render_prediction(p), want);
  EXPECT_EQ(written(p), want);

  std::istringstream is(want);
  const Prediction back = read_prediction(is);
  EXPECT_EQ(render_prediction(back), want);
  EXPECT_EQ(back.categories[1].name, " lead, and trail ");
  EXPECT_TRUE(std::signbit(back.time_s[1]) && std::isnan(back.time_s[1]));
}

TEST(PredictionWriter, NumberCellsAreByteEqualToTheLegacyStreamForRandomBits) {
  // Random bit patterns cover every exponent, subnormals and NaN payloads;
  // the listed values pin the boundaries explicitly.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(std::numeric_limits<double>::max_digits10);
  std::string got;
  std::size_t mismatches = 0;
  const auto check = [&](double v) {
    os.str("");
    os << v;
    got.clear();
    textparse::append_f64(got, v);
    if (got != os.str() && ++mismatches <= 5) {
      ADD_FAILURE() << "to_chars '" << got << "' vs ostream '" << os.str()
                    << "'";
    }
  };
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 1e17, 9999999999999998.0,
        99999999999999999.0, 1e-4, 1e-5, 5e-324, -5e-324,
        2.2250738585072009e-308, 2.2250738585072014e-308, DBL_MAX, -DBL_MAX,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    check(v);
  }
  std::mt19937_64 rng(0x17c4a25ull);
  constexpr int kSamples = 1 << 20;
  for (int i = 0; i < kSamples; ++i) check(from_bits(rng()));
  // Doubles in the range real records carry, where %g picks fixed
  // notation and every digit position matters.
  std::uniform_real_distribution<double> mag(-12.0, 20.0);
  for (int i = 0; i < kSamples / 4; ++i) {
    check(std::pow(10.0, mag(rng)) * (i % 2 ? 1 : -1));
  }
  EXPECT_EQ(mismatches, 0u);

  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t u = rng() >> (i % 64);
    const int n = static_cast<int>(static_cast<std::uint32_t>(rng()));
    os.str("");
    os << u << ' ' << n;
    got.clear();
    textparse::append_int(got, u);
    got += ' ';
    textparse::append_int(got, n);
    ASSERT_EQ(got, os.str());
  }
}

TEST(PredictionWriter, ServeDemoCampaignsAreByteEqualToTheLegacyWriters) {
  // The six committed demo campaigns, predicted with the daemon's serving
  // config: the records a /v1/predict answers and a snapshot stores.
  parallel::ThreadPool pool(4);
  PredictionConfig cfg;
  cfg.target_cores = cores_up_to(48);
  for (int i = 0; i < 6; ++i) {
    const std::string path = std::string(ESTIMA_SOURCE_DIR) +
                             "/serve_demo_campaigns/campaign_" +
                             std::to_string(i) + ".csv";
    const MeasurementSet ms = load_csv(path);
    const std::string file = read_file(path);
    EXPECT_EQ(written_csv(ms), file) << path;
    EXPECT_EQ(legacy_csv(ms), file) << path;

    const Prediction p = predict(ms, cfg, &pool);
    const std::string record = render_prediction(p);
    EXPECT_EQ(record, legacy_record(p)) << path;
    EXPECT_EQ(written(p), record) << path;
  }
}

TEST(PredictionWriter, StreamFlagsDoNotChangeTheBytes) {
  const Prediction p = edge_case_prediction();
  const MeasurementSet ms = sample_set();
  const std::string want = legacy_record(p);
  const std::string want_csv = legacy_csv(ms);
  for (const auto flags :
       {std::ios_base::fmtflags(std::ios_base::fixed),
        std::ios_base::fmtflags(std::ios_base::scientific |
                                std::ios_base::uppercase),
        std::ios_base::fmtflags(std::ios_base::showpos |
                                std::ios_base::showpoint),
        std::ios_base::fmtflags(std::ios_base::hex | std::ios_base::showbase)}) {
    std::ostringstream os;
    os.flags(flags);
    os.precision(3);
    write_prediction(os, p);
    EXPECT_EQ(os.str(), want) << "flags " << flags;
    std::ostringstream csv;
    csv.flags(flags);
    csv.precision(3);
    write_csv(csv, ms);
    EXPECT_EQ(csv.str(), want_csv) << "flags " << flags;
  }
}

TEST(PredictionWriter, StreamWidthDoesNotPadTheRecord) {
  const Prediction p = edge_case_prediction();
  const MeasurementSet ms = sample_set();
  std::ostringstream os;
  os << std::setw(40) << std::setfill('*');
  write_prediction(os, p);
  EXPECT_EQ(os.str(), legacy_record(p));
  std::ostringstream csv;
  csv << std::setw(40) << std::setfill('*');
  write_csv(csv, ms);
  EXPECT_EQ(csv.str(), legacy_csv(ms));
}

TEST(PredictionWriter, GlobalLocaleDoesNotChangeTheBytes) {
  const Prediction p = edge_case_prediction();
  MeasurementSet ms = sample_set();
  ms.time_s[0] = 6.3048123;
  ms.categories[0].values[0] = 1809115088.52461;
  const std::string want = legacy_record(p);
  const std::string want_csv = legacy_csv(ms);

  const GlobalLocale comma(
      std::locale(std::locale::classic(), new CommaNumpunct));
  {
    // The locale is live: a plain stream now groups and uses a comma.
    std::ostringstream probe;
    probe << 1809115088 << ' ' << 6.5;
    ASSERT_EQ(probe.str(), "1'809'115'088 6,5");
  }
  const std::string record = written(p);
  EXPECT_EQ(record, want);
  std::istringstream is(record);
  Prediction back;
  ASSERT_NO_THROW(back = read_prediction(is));
  EXPECT_EQ(back.stalls_per_core, p.stalls_per_core);

  const std::string csv = written_csv(ms);
  EXPECT_EQ(csv, want_csv);
  std::istringstream csv_is(csv);
  MeasurementSet ms_back;
  ASSERT_NO_THROW(ms_back = read_csv(csv_is));
  EXPECT_EQ(ms_back.time_s, ms.time_s);
  EXPECT_EQ(ms_back.categories[0].values, ms.categories[0].values);
}

}  // namespace
}  // namespace estima::core
