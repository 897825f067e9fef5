#include "core/measurement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
#include "legacy_readers.hpp"
#include "legacy_writers.hpp"
#include "parallel/thread_pool.hpp"
#include "simmachine/machine.hpp"
#include "simmachine/presets.hpp"
#include "simmachine/simulator.hpp"

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

TEST(Measurement, CsvMetadataNumbersFollowTheCellRule) {
  const auto body = [](const std::string& meta) {
    return "# workload=w machine=m " + meta + "\ncores,time_s\n1,1.0\n";
  };
  // stod loaded "2.1GHz" as 2.1, answered "fast" with a bare "stod" and
  // threw std::out_of_range (a 500 at the router) on "1e999".
  for (const std::string bad :
       {"freq_ghz=1e999", "freq_ghz=fast", "freq_ghz=2.1GHz", "freq_ghz=",
        "dataset_bytes=-1e999", "dataset_bytes=1e9B", "dataset_bytes=0x"}) {
    try {
      read_csv(std::string_view(body(bad)));
      FAIL() << bad << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "measurement csv: malformed metadata value '" + bad + "'");
    }
  }
  // Whatever a data cell takes, a metadata number takes: subnormals (stod
  // threw std::out_of_range), inf, hex.
  const auto ms = read_csv(std::string_view(
      body("freq_ghz=1e-310 dataset_bytes=0x1p30")));
  EXPECT_EQ(ms.freq_ghz, 1e-310);
  EXPECT_EQ(ms.dataset_bytes, 1073741824.0);
  EXPECT_EQ(read_csv(std::string_view(body("freq_ghz=inf"))).freq_ghz,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(read_csv(std::string_view(body("freq_ghz=2.1"))).freq_ghz, 2.1);
}

TEST(Measurement, CsvRejectsColumnHeadersWithoutCoresAndTimeS) {
  // These passed with no time_s check: "cores" alone took two-cell rows.
  for (const std::string header : {"cores", "cores,", ""}) {
    const std::string body =
        "# workload=w machine=m\n" + header + "\n1,1.0\n";
    try {
      read_csv(std::string_view(body));
      FAIL() << "header '" << header << "': expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "measurement csv: column header must start with cores,time_s");
    }
  }
  // cores,time_s alone is a campaign without stall categories.
  const auto ms =
      read_csv(std::string_view("# workload=w\ncores,time_s\n1,1.0\n"));
  EXPECT_EQ(ms.num_points(), 1u);
  EXPECT_TRUE(ms.categories.empty());
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

TEST(PredictionWriter, ExactFastPathEdgesAreByteEqualToPrintfAndTheStream) {
  // append_f64 prints decimal exponents -11..16 from an exact integer
  // product and everything else through to_chars; these values sit on
  // that path's rounding ties, exponent-estimate boundaries, %g layout
  // switches and range edges.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(std::numeric_limits<double>::max_digits10);
  std::string got;
  char want[64];
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const auto check = [&](double v) {
    std::snprintf(want, sizeof want, "%.17g", v);
    os.str("");
    os << v;
    got.clear();
    textparse::append_f64(got, v);
    ++checked;
    if ((got != want || os.str() != want) && ++mismatches <= 5) {
      ADD_FAILURE() << "append_f64 '" << got << "' vs printf '" << want
                    << "' vs ostream '" << os.str() << "'";
    }
  };
  const auto printed = [&](double v) {
    got.clear();
    textparse::append_f64(got, v);
    return got;
  };

  // Exact ties at the 17th digit round half to even.
  EXPECT_EQ(printed((4e15 + 1) / 4), "1000000000000000.2");
  EXPECT_EQ(printed((4e15 + 3) / 4), "1000000000000000.8");
  EXPECT_EQ(printed(-(4e15 + 1) / 4), "-1000000000000000.2");
  EXPECT_EQ(printed((8e14 + 1) / 8), "100000000000000.12");
  EXPECT_EQ(printed((8e14 + 3) / 8), "100000000000000.38");
  std::mt19937_64 rng(0x5eed17ull);
  for (int j = 1; j <= 12; ++j) {
    // N/2^j for odd 53-bit N, and odd N that put N/2^j at exactly 18
    // significant digits, the 18th a 5: a tie at the 17th.
    const double lo = std::ldexp(std::pow(10.0, 17 - j), j);
    const double hi = std::min(std::ldexp(std::pow(10.0, 18 - j), j),
                               std::ldexp(1.0, 53));
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t n53 = (rng() >> 11) | (1ull << 52) | 1;
      check(std::ldexp(static_cast<double>(n53), -j));
    }
    if (lo >= hi) continue;  // j = 1: no such N below 2^53
    std::uniform_int_distribution<std::uint64_t> tie(
        static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi) - 1);
    for (int i = 0; i < 20000; ++i) {
      check(std::ldexp(static_cast<double>(tie(rng) | 1), -j));
    }
  }

  // Powers of ten and their neighbours: the exponent estimate's
  // boundaries, the fast range's edges (1e-11, 1e17) and, through a
  // rounding carry, the exponent one above the estimate.
  for (int k = -13; k <= 18; ++k) {
    const double p = std::pow(10.0, k);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      check(v);
      check(-v);
    }
  }
  // %g's fixed/scientific switch points (exponent -4/-5 and 16/17), a few
  // ulps either side.
  for (double edge : {1e-4, 1e-5, 1e16, 1e17}) {
    double down = edge;
    double up = edge;
    for (int u = 0; u < 8; ++u) {
      check(down);
      check(up);
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, HUGE_VAL);
    }
  }
  EXPECT_EQ(printed(1e16), "10000000000000000");
  EXPECT_EQ(printed(99999999999999984.0), "99999999999999984");
  EXPECT_EQ(printed(1e17), "1e+17");
  EXPECT_EQ(printed(1e-4), "0.0001");
  EXPECT_EQ(printed(1e-5), "1.0000000000000001e-05");

  // Whole numbers print without a '.'.
  for (int i = 1; i <= 100000; ++i) check(i);
  for (int b = 0; b < 57; ++b) check(std::ldexp(1.0, b));
  EXPECT_EQ(printed(48.0), "48");
  EXPECT_EQ(printed(-4096.0), "-4096");

  EXPECT_EQ(printed(0.0), "0");
  EXPECT_EQ(printed(-0.0), "-0");
  check(0.0);
  check(-0.0);

  // Uniform in mantissa and in decimal exponent over [1e-12, 1e18].
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-12, 17);
  constexpr int kSamples = 1 << 22;
  for (int i = 0; i < kSamples; ++i) {
    const double v = mantissa(rng) * std::pow(10.0, exponent(rng));
    check(i % 2 ? v : -v);
  }
  EXPECT_GE(checked, static_cast<std::size_t>(kSamples));
  EXPECT_EQ(mismatches, 0u);
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

// ---------------------------------------------------------------------------
// Readers: the in-place read_csv and the from_chars fast path held bitwise
// to the legacy stream reader and strtod rule (tests/legacy_readers.hpp):
// the same value, or the same exception type and message.

using testing::legacy_parse_f64;
using testing::legacy_parse_i32;
using testing::legacy_parse_u64;
using testing::legacy_read_csv;

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

template <typename T>
bool same_cell(const std::optional<T>& a, const std::optional<T>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if constexpr (std::is_same_v<T, double>) {
    return bits_of(*a) == bits_of(*b);
  } else {
    return *a == *b;
  }
}

/// Counts the cells on which any of the three parsers disagrees with its
/// legacy rule; reports the first few.
std::size_t cell_rule_mismatches(const std::vector<std::string>& cells) {
  std::size_t bad = 0;
  for (const std::string& c : cells) {
    const bool ok = same_cell(textparse::parse_f64(c), legacy_parse_f64(c)) &&
                    same_cell(textparse::parse_i32(c), legacy_parse_i32(c)) &&
                    same_cell(textparse::parse_u64(c), legacy_parse_u64(c));
    if (!ok && ++bad <= 10) {
      ADD_FAILURE() << "cell rule differs on '" << c << "'";
    }
  }
  return bad;
}

std::string printed(const char* fmt, double v) {
  char buf[1100];  // "%.17f" of DBL_MAX is 327 chars
  const int n = std::snprintf(buf, sizeof buf, fmt, v);
  return std::string(buf, static_cast<std::size_t>(n));
}

TEST(CellRule, EdgeCellsMatchTheStrtodRule) {
  std::vector<std::string> cells = {
      "", " ", "0", "-0", "+0", "00", "007", "1", "-1", "+1", " 1", "1 ",
      "\t1", "1\n", ".", "-", "+", "e", "e5", "1e", "1e+", "1e-", "1.",
      ".5", "-.5", "+.5", "5.e3", "1,5", "1_000", "1x", "0x", "0x1p3",
      "0X1P-3", "-0x1.8p1", "0x10", "0b1", "inf", "-inf", "+inf", "INF",
      "Inf", "infinity", "-Infinity", "infin", "nan", "-nan", "+nan", "NaN",
      "nan(123)", "nan(0x7ff)", "-nan(1)", "nan(", "nanx", "1e999",
      "-1e999", "1e308", "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "-1.7976931348623159e308", "1e-999",
      "-1e-999", "1e-400", "2e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "4.9406564584124654e-324", "5e-324",
      "1e-310", "-1e-310", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "9007199254740993", "9007199254740992.5",
      "0.1", "0.30000000000000004", "123456789012345678901234567890",
      "1e99999999999999999999", "1e-99999999999999999999",
      "0e99999999999999999999", "2147483647", "2147483648", "-2147483648",
      "-2147483649", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809",
      "18446744073709551615", "18446744073709551616", " -1", "--1", "-+1",
      "1.0", "1e0", "٣", "\xef\xbc\x91", "\xff", "1.5e+03", "1.5E-03"};
  cells.push_back(std::string("1\0", 2));
  cells.push_back(std::string("\0" "1", 2));
  cells.push_back(std::string(800, '9'));
  cells.push_back("0." + std::string(800, '0') + "1");
  cells.push_back("1" + std::string(400, '0') + "e-400");
  EXPECT_EQ(cell_rule_mismatches(cells), 0u);
}

TEST(CellRule, RandomCellsMatchTheStrtodRule) {
  std::mt19937_64 rng(0xCE11);
  std::vector<std::string> cells;
  // Random-bit doubles as every writer prints them (%.17g), plus shorter,
  // fixed, scientific and hex forms.
  const char* const fmts[] = {"%.17g", "%.17g", "%.17g", "%.17g",
                              "%.3g",  "%.6e",  "%a",    "%.17f"};
  for (int i = 0; i < (1 << 21); ++i) {
    const std::uint64_t r = rng();
    cells.push_back(printed(fmts[r & 7], from_bits(r)));
  }
  // Record-range values (the bulk of real cells).
  std::uniform_real_distribution<double> mag(-30.0, 30.0);
  for (int i = 0; i < (1 << 18); ++i) {
    cells.push_back(printed("%.17g", std::pow(10.0, mag(rng))));
  }
  // Integers of every width, both signs.
  for (int i = 0; i < (1 << 16); ++i) {
    const std::uint64_t r = rng();
    const unsigned shift = static_cast<unsigned>(r % 64);
    cells.push_back(std::to_string((r >> shift) ^ (r & 1 ? 0 : 1)));
    cells.push_back(std::to_string(-static_cast<long long>(r >> (shift | 1))));
  }
  // Random strings over the numeric alphabet plus a few strangers.
  const std::string alpha = "0123456789012345678901234567.eE+-xpinfa() ,\t";
  for (int i = 0; i < (1 << 18); ++i) {
    const std::size_t len = 1 + rng() % 24;
    std::string c;
    for (std::size_t k = 0; k < len; ++k) c += alpha[rng() % alpha.size()];
    if (rng() % 64 == 0) c[rng() % len] = '\0';
    cells.push_back(std::move(c));
  }
  ASSERT_GT(cells.size(), 2500000u);
  EXPECT_EQ(cell_rule_mismatches(cells), 0u);
}

bool same_set(const MeasurementSet& a, const MeasurementSet& b) {
  const auto same_series = [](const std::vector<double>& x,
                              const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (bits_of(x[i]) != bits_of(y[i])) return false;
    }
    return true;
  };
  if (a.workload != b.workload || a.machine != b.machine ||
      bits_of(a.freq_ghz) != bits_of(b.freq_ghz) ||
      bits_of(a.dataset_bytes) != bits_of(b.dataset_bytes) ||
      a.cores != b.cores || !same_series(a.time_s, b.time_s) ||
      a.categories.size() != b.categories.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.categories.size(); ++c) {
    if (a.categories[c].name != b.categories[c].name ||
        a.categories[c].domain != b.categories[c].domain ||
        !same_series(a.categories[c].values, b.categories[c].values)) {
      return false;
    }
  }
  return true;
}

/// A reader's answer to one body: the set, or the exception it threw.
struct ReadOutcome {
  bool ok = false;
  MeasurementSet ms;
  std::string error;  // "<type>: <what()>"
};

template <typename Read>
ReadOutcome outcome_of(Read&& read) {
  ReadOutcome o;
  try {
    o.ms = read();
    o.ok = true;
  } catch (const std::invalid_argument& e) {
    o.error = std::string("invalid_argument: ") + e.what();
  } catch (const std::out_of_range& e) {
    o.error = std::string("out_of_range: ") + e.what();
  } catch (const std::exception& e) {
    o.error = std::string("exception: ") + e.what();
  }
  return o;
}

bool same_outcome(const ReadOutcome& a, const ReadOutcome& b) {
  return a.ok == b.ok && (a.ok ? same_set(a.ms, b.ms) : a.error == b.error);
}

/// True when the two bugfixes make the reader answer differently from the
/// legacy one by design: a freq_ghz / dataset_bytes value that std::stod
/// rejects or reads differently from the cell rule, or a column header
/// with fewer than two columns that starts with "cores". Both have their
/// own tests above.
bool changed_by_design(const std::string& body) {
  std::istringstream is(body);
  std::string line;
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty() || line[0] != '#') return false;
  std::istringstream meta(line.substr(1));
  std::string tok;
  while (meta >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tok.substr(0, eq);
    if (key != "freq_ghz" && key != "dataset_bytes") continue;
    const std::string val = tok.substr(eq + 1);
    std::optional<double> by_stod;
    try {
      by_stod = std::stod(val);
    } catch (const std::exception&) {
    }
    // A value stod rejects is rejected with a different message now.
    if (!by_stod || !same_cell(by_stod, textparse::parse_f64(val))) {
      return true;
    }
  }
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  // A one-column header other than "cores" fails the first-column check
  // in both readers.
  return line.empty() || line == "cores" || line == "cores,";
}

/// Holds read_csv (view and stream forms) to the legacy reader on one
/// body. Returns false (without comparing) for a carved-out body.
bool expect_reader_matches_legacy(const std::string& body,
                                  const std::string& label) {
  if (changed_by_design(body)) return false;
  const ReadOutcome want = outcome_of([&] { return legacy_read_csv(body); });
  const ReadOutcome view =
      outcome_of([&] { return read_csv(std::string_view(body)); });
  EXPECT_TRUE(same_outcome(view, want))
      << label << ": view reader '" << view.error << "' vs legacy '"
      << want.error << "'";
  std::istringstream is(body);
  const ReadOutcome stream = outcome_of([&] { return read_csv(is); });
  EXPECT_TRUE(same_outcome(stream, want))
      << label << ": stream reader '" << stream.error << "' vs legacy '"
      << want.error << "'";
  return true;
}

std::vector<std::string> split_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string joined(const std::vector<std::string>& lines,
                   const std::string& eol, bool final_eol = true) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size() || final_eol) out += eol;
  }
  return out;
}

/// The corpus bodies: the committed demo campaigns and simulated campaigns
/// of every preset on both 48-core machines.
std::vector<std::pair<std::string, std::string>> reader_corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  for (int i = 0; i < 6; ++i) {
    const std::string path = std::string(ESTIMA_SOURCE_DIR) +
                             "/serve_demo_campaigns/campaign_" +
                             std::to_string(i) + ".csv";
    out.emplace_back(path, read_file(path));
  }
  for (const auto& machine : {sim::opteron48(), sim::xeon48()}) {
    for (const std::string& name : sim::presets::all_workload_names()) {
      const auto ms = sim::simulate(sim::presets::workload(name), machine,
                                    {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48});
      out.emplace_back(name + "@" + machine.name, written_csv(ms));
    }
  }
  return out;
}

/// Well-formed and malformed variants of one body: line endings, comments,
/// blank lines, short/long rows, trailing commas, embedded NULs, a missing
/// final newline, and single-byte edits.
std::vector<std::string> variants_of(const std::string& body,
                                     std::mt19937_64& rng) {
  const std::vector<std::string> lines = split_lines(body);
  std::vector<std::string> out = {body, joined(lines, "\r\n"),
                                  joined(lines, "\n", false),
                                  joined(lines, "\r\n", false)};
  const std::size_t n = lines.size();
  const auto edited = [&](std::size_t at, const std::string& line) {
    std::vector<std::string> l = lines;
    l[at] = line;
    return joined(l, "\n");
  };
  const auto inserted = [&](std::size_t at, const std::string& line) {
    std::vector<std::string> l = lines;
    l.insert(l.begin() + static_cast<std::ptrdiff_t>(at), line);
    return joined(l, "\n");
  };
  const std::size_t row = 2 + rng() % (n - 2);  // a data row
  const std::string& r = lines[row];
  for (const std::string extra : {"", "\r", "# comment, with commas", "#",
                                  "\r\r", " ", ","}) {
    out.push_back(inserted(row, extra));
    out.push_back(inserted(n, extra));
    out.push_back(inserted(1, extra));  // between metadata and header
  }
  out.push_back(edited(row, r + ","));
  out.push_back(edited(row, r + ",1"));
  out.push_back(edited(row, r.substr(0, r.rfind(','))));
  out.push_back(edited(row, "," + r));
  out.push_back(edited(row, r + "\r"));
  out.push_back(edited(row, r + " "));
  out.push_back(edited(1, lines[1] + ","));
  out.push_back(edited(1, lines[1] + ",,"));
  out.push_back(edited(1, lines[1] + ",hw:extra"));
  out.push_back(edited(1, lines[1] + ",xx:extra"));
  out.push_back(edited(1, lines[1] + ",noprefix"));
  out.push_back(edited(0, lines[0] + " \t\v\f token_without_eq ="));
  out.push_back(edited(0, "#workload=a=b machine= freq_ghz=3"));
  out.push_back(edited(0, lines[0].substr(1)));
  std::string nul_cell = r;
  nul_cell.insert(r.size() / 2, 1, '\0');
  out.push_back(edited(row, nul_cell));
  std::string nul_name = lines[1];
  nul_name.insert(nul_name.size() - 1, 1, '\0');
  out.push_back(edited(1, nul_name));
  out.push_back(edited(0, lines[0] + " note=" + std::string(1, '\0')));
  // Swap two rows (non-ascending cores) and duplicate one.
  {
    std::vector<std::string> l = lines;
    std::swap(l[2], l[n - 1]);
    out.push_back(joined(l, "\n"));
    l = lines;
    l.insert(l.begin() + 3, l[2]);
    out.push_back(joined(l, "\n"));
  }
  // Single-byte edits and truncations anywhere.
  const std::string strangers = std::string(",\n\r#-+e.x 0\t", 12) + '\0';
  for (int k = 0; k < 24; ++k) {
    std::string b = body;
    b[rng() % b.size()] = strangers[rng() % strangers.size()];
    out.push_back(std::move(b));
    out.push_back(body.substr(0, rng() % body.size()));
  }
  return out;
}

TEST(CsvReader, CorpusBodiesAndVariantsMatchTheLegacyReader) {
  std::mt19937_64 rng(0xC5F);
  std::size_t compared = 0, accepted = 0, carved_out = 0;
  const auto corpus = reader_corpus();
  ASSERT_EQ(corpus.size(), 6 + 2 * sim::presets::all_workload_names().size());
  for (const auto& [label, body] : corpus) {
    const auto variants = variants_of(body, rng);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      if (!expect_reader_matches_legacy(variants[v],
                                        label + " variant " +
                                            std::to_string(v))) {
        ++carved_out;
        continue;
      }
      ++compared;
      if (v == 0) {
        EXPECT_NO_THROW(read_csv(std::string_view(variants[v]))) << label;
      }
      accepted += outcome_of([&] {
                    return read_csv(std::string_view(variants[v]));
                  }).ok;
    }
  }
  // Every body of the demo campaigns' byte prefixes, too: each truncation
  // point of a line, a cell and a number.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string& body = corpus[i].second;
    for (std::size_t len = 0; len <= body.size(); ++len) {
      if (expect_reader_matches_legacy(body.substr(0, len),
                                       corpus[i].first + " prefix " +
                                           std::to_string(len))) {
        ++compared;
      } else {
        ++carved_out;
      }
    }
  }
  // Not vacuous: thousands compared, both outcomes well represented, and
  // the carve-out (short headers from truncation) stays a small minority.
  EXPECT_GT(compared, 5000u);
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(compared - accepted, 1000u);
  EXPECT_LT(carved_out * 20, compared);
}

TEST(CsvReader, StreamFormReadsFromTheCurrentPosition) {
  // The istream overload reads the rest of the stream, as the getline loop
  // did; a stream that is not good() reads as empty.
  const std::string body = written_csv(sample_set());
  std::istringstream is("skipped" + body);
  is.ignore(7);
  EXPECT_TRUE(same_set(read_csv(is), sample_set()));
  std::istringstream failed(body);
  failed.setstate(std::ios::failbit);
  EXPECT_THROW(read_csv(failed), std::invalid_argument);
  EXPECT_THROW(legacy_read_csv(failed), std::invalid_argument);
}

}  // namespace
}  // namespace estima::core
