#include "core/prediction_io.hpp"

#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/kernels.hpp"
#include "core/text_parse.hpp"

namespace estima::core {
namespace {

// Ceiling on any serialized element count. Well-formed snapshots stay far
// below it; it turns a corrupted-count line into a clean parse error
// instead of a multi-gigabyte allocation attempt.
constexpr std::size_t kMaxCount = 1u << 20;

[[noreturn]] void fail(const std::string& what, const std::string& line) {
  throw std::invalid_argument("prediction record: " + what + " in line '" +
                              line + "'");
}

// Accept/reject semantics live in core/text_parse.hpp, shared with the
// CSV seam; these wrappers only attach this format's diagnostics.
double parse_f64(const std::string& cell, const std::string& line) {
  const auto v = textparse::parse_f64(cell);
  if (!v) fail("malformed numeric cell '" + cell + "'", line);
  return *v;
}

std::uint64_t parse_u64(const std::string& cell, const std::string& line) {
  const auto v = textparse::parse_u64(cell);
  if (!v) fail("malformed count cell '" + cell + "'", line);
  return *v;
}

int parse_i32(const std::string& cell, const std::string& line) {
  const auto v = textparse::parse_i32(cell);
  if (!v) fail("malformed integer cell '" + cell + "'", line);
  return *v;
}

std::size_t parse_count(const std::string& cell, const std::string& line) {
  const std::uint64_t v = parse_u64(cell, line);
  if (v > kMaxCount) fail("implausible element count", line);
  return static_cast<std::size_t>(v);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::string next_line(std::istream& is, const char* what) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument(std::string("prediction record: truncated, "
                                            "expected ") +
                                what);
  }
  textparse::strip_cr(line);
  return line;
}

/// Expects `tag <n> v0 v1 ... v{n-1}`.
std::vector<double> read_f64_series(std::istream& is, const char* tag) {
  const std::string line = next_line(is, tag);
  const auto toks = split_ws(line);
  if (toks.size() < 2 || toks[0] != tag) fail(std::string("expected ") + tag,
                                              line);
  const std::size_t n = parse_count(toks[1], line);
  if (toks.size() != 2 + n) fail("series length mismatch", line);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(parse_f64(toks[2 + i],
                                                              line));
  return out;
}

/// Expects `tag <kernel> <y_scale> <np> p0 ...` with np matching the
/// kernel's parameter count — except np == 0, which denotes a
/// default-constructed function (predict() leaves factor_fn empty when a
/// category falls back to the constant extension).
FittedFunction read_fn(std::istream& is, const char* tag) {
  const std::string line = next_line(is, tag);
  const auto toks = split_ws(line);
  if (toks.size() < 4 || toks[0] != tag) fail(std::string("expected ") + tag,
                                              line);
  FittedFunction fn;
  const auto type = kernel_from_name(toks[1]);
  if (!type) fail("unknown kernel '" + toks[1] + "'", line);
  fn.type = *type;
  fn.y_scale = parse_f64(toks[2], line);
  const std::size_t np = parse_count(toks[3], line);
  if (toks.size() != 4 + np) fail("parameter count mismatch", line);
  if (np != 0 && np != kernel_param_count(fn.type)) {
    fail("parameter count does not match kernel", line);
  }
  fn.params.reserve(np);
  for (std::size_t i = 0; i < np; ++i) {
    fn.params.push_back(parse_f64(toks[4 + i], line));
  }
  return fn;
}

/// An upper bound on the bytes render_prediction writes, plus the room
/// the last number store may reach past its text: every number (element
/// counts included) at its longest form with a separator, every line's
/// tag and punctuation at the longest tag's length, and every name in
/// full.
std::size_t record_capacity(const Prediction& p) {
  constexpr std::size_t kCell = 1 + 24;  // ' ' + longest %.17g or integer
  constexpr std::size_t kLine = 32;      // longest tag, spaces and '\n'
  const auto fn_cells = [](const FittedFunction& fn) {
    return fn.params.size() + 2;  // y_scale, count, params
  };
  std::size_t lines = 11;
  std::size_t cells = p.cores.size() + p.time_s.size() +
                      p.stalls_per_core.size() + 3 + fn_cells(p.factor_fn) +
                      2 + 5 + 1;  // correlation, freq_scale, stats, count
  std::size_t names = kernel_name(p.factor_fn.type).size();
  for (const auto& cat : p.categories) {
    lines += 4;
    cells += cat.values.size() + 1 + fn_cells(cat.extrapolation.best) + 1 + 6;
    names += stall_domain_prefix(cat.domain).size() + cat.name.size() +
             kernel_name(cat.extrapolation.best.type).size();
  }
  return lines * kLine + cells * kCell + names + textparse::kNumberRoom;
}

/// The record's one write cursor: render_prediction sizes the buffer with
/// record_capacity once, and every tag, name and number is stored through
/// here with no bounds check and no reallocation.
class RecordWriter {
 public:
  explicit RecordWriter(char* at) : p_(at) {}
  char* end() const { return p_; }

  RecordWriter& text(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
    return *this;
  }
  RecordWriter& ch(char c) {
    *p_++ = c;
    return *this;
  }
  RecordWriter& f64(double v) {
    p_ = textparse::write_f64(p_, v);
    return *this;
  }
  template <typename Int>
  RecordWriter& integer(Int v) {
    p_ = textparse::write_int(p_, v);
    return *this;
  }

  /// `tag <n> v0 v1 ... v{n-1}\n`.
  template <typename T>
  void series(std::string_view tag, const std::vector<T>& values) {
    text(tag).ch(' ').integer(values.size());
    for (const T v : values) {
      ch(' ');
      if constexpr (std::is_floating_point_v<T>) {
        f64(v);
      } else {
        integer(v);
      }
    }
    ch('\n');
  }

  /// `tag <kernel> <y_scale> <np> p0 ...\n`.
  void fn(std::string_view tag, const FittedFunction& f) {
    text(tag).ch(' ').text(kernel_name(f.type)).ch(' ').f64(f.y_scale);
    ch(' ').integer(f.params.size());
    for (const double v : f.params) ch(' ').f64(v);
    ch('\n');
  }

  /// Space-separated integers closing a line: ` v0 v1 ...\n`.
  template <typename... Int>
  void ints(Int... values) {
    ((ch(' '), integer(values)), ...);
    ch('\n');
  }

 private:
  char* p_;
};

}  // namespace

std::string render_prediction(const Prediction& p) {
  std::string out(record_capacity(p), '\0');
  RecordWriter w(out.data());
  w.text("prediction v=1\n");
  w.series("cores", p.cores);
  w.series("time_s", p.time_s);
  w.series("stalls_per_core", p.stalls_per_core);
  w.fn("factor_fn", p.factor_fn);
  w.text("factor_correlation ").f64(p.factor_correlation);
  w.text("\nfreq_scale ").f64(p.freq_scale);
  w.text("\nfactor_stats");
  w.ints(p.factor_stats.candidates_attempted, p.factor_stats.fits_executed,
         p.factor_stats.duplicate_fits_eliminated,
         p.factor_stats.realism_variants,
         p.factor_stats.variant_refits_avoided);
  w.text("factor_used_relaxed_realism ")
      .text(p.factor_used_relaxed_realism ? "1\n" : "0\n");

  w.text("categories");
  w.ints(p.categories.size());
  for (const auto& cat : p.categories) {
    // The name is the remainder of the line: spaces and commas round-trip.
    w.text("category ").text(stall_domain_prefix(cat.domain)).ch(' ');
    w.text(cat.name).ch('\n');
    w.series("values", cat.values);
    w.fn("best", cat.extrapolation.best);
    const SeriesExtrapolation& x = cat.extrapolation;
    w.text("extrap ").f64(x.checkpoint_rmse);
    w.ints(x.chosen_prefix, x.chosen_checkpoints, x.candidates_considered,
           x.candidates_realistic, x.fits_executed,
           x.duplicate_fits_eliminated);
  }
  w.text("end prediction\n");
  out.resize(static_cast<std::size_t>(w.end() - out.data()));
  return out;
}

void write_prediction(std::ostream& os, const Prediction& p) {
  const std::string record = render_prediction(p);
  os.write(record.data(), static_cast<std::streamsize>(record.size()));
}

Prediction read_prediction(std::istream& is) {
  Prediction p;

  {
    const std::string line = next_line(is, "prediction header");
    if (line != "prediction v=1") fail("bad prediction header", line);
  }
  {
    const std::string line = next_line(is, "cores");
    const auto toks = split_ws(line);
    if (toks.size() < 2 || toks[0] != "cores") fail("expected cores", line);
    const std::size_t n = parse_count(toks[1], line);
    if (toks.size() != 2 + n) fail("series length mismatch", line);
    p.cores.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      p.cores.push_back(parse_i32(toks[2 + i], line));
    }
  }
  p.time_s = read_f64_series(is, "time_s");
  p.stalls_per_core = read_f64_series(is, "stalls_per_core");
  if (p.time_s.size() != p.cores.size() ||
      p.stalls_per_core.size() != p.cores.size()) {
    throw std::invalid_argument(
        "prediction record: cores/time_s/stalls_per_core size mismatch");
  }
  p.factor_fn = read_fn(is, "factor_fn");
  {
    const std::string line = next_line(is, "factor_correlation");
    const auto toks = split_ws(line);
    if (toks.size() != 2 || toks[0] != "factor_correlation") {
      fail("expected factor_correlation", line);
    }
    p.factor_correlation = parse_f64(toks[1], line);
  }
  {
    const std::string line = next_line(is, "freq_scale");
    const auto toks = split_ws(line);
    if (toks.size() != 2 || toks[0] != "freq_scale") {
      fail("expected freq_scale", line);
    }
    p.freq_scale = parse_f64(toks[1], line);
  }
  {
    const std::string line = next_line(is, "factor_stats");
    const auto toks = split_ws(line);
    if (toks.size() != 6 || toks[0] != "factor_stats") {
      fail("expected factor_stats", line);
    }
    p.factor_stats.candidates_attempted = parse_u64(toks[1], line);
    p.factor_stats.fits_executed = parse_u64(toks[2], line);
    p.factor_stats.duplicate_fits_eliminated = parse_u64(toks[3], line);
    p.factor_stats.realism_variants = parse_u64(toks[4], line);
    p.factor_stats.variant_refits_avoided = parse_u64(toks[5], line);
  }
  {
    const std::string line = next_line(is, "factor_used_relaxed_realism");
    const auto toks = split_ws(line);
    if (toks.size() != 2 || toks[0] != "factor_used_relaxed_realism" ||
        (toks[1] != "0" && toks[1] != "1")) {
      fail("expected factor_used_relaxed_realism", line);
    }
    p.factor_used_relaxed_realism = toks[1] == "1";
  }

  std::size_t categories = 0;
  {
    const std::string line = next_line(is, "categories");
    const auto toks = split_ws(line);
    if (toks.size() != 2 || toks[0] != "categories") {
      fail("expected categories", line);
    }
    categories = parse_count(toks[1], line);
  }
  p.categories.reserve(categories);
  for (std::size_t c = 0; c < categories; ++c) {
    CategoryPrediction cat;
    {
      const std::string line = next_line(is, "category");
      // `category <domain> <name...>`: split only the first two tokens so
      // the name keeps its internal whitespace.
      const auto sp1 = line.find(' ');
      if (sp1 == std::string::npos || line.substr(0, sp1) != "category") {
        fail("expected category", line);
      }
      const auto sp2 = line.find(' ', sp1 + 1);
      if (sp2 == std::string::npos) fail("category lacks a name", line);
      cat.domain = stall_domain_from_prefix(line.substr(sp1 + 1, sp2 - sp1 - 1));
      cat.name = line.substr(sp2 + 1);
    }
    cat.values = read_f64_series(is, "values");
    if (cat.values.size() != p.cores.size()) {
      throw std::invalid_argument("prediction record: category '" + cat.name +
                                  "' values size mismatch");
    }
    cat.extrapolation.best = read_fn(is, "best");
    {
      const std::string line = next_line(is, "extrap");
      const auto toks = split_ws(line);
      if (toks.size() != 8 || toks[0] != "extrap") fail("expected extrap",
                                                        line);
      cat.extrapolation.checkpoint_rmse = parse_f64(toks[1], line);
      cat.extrapolation.chosen_prefix = parse_i32(toks[2], line);
      cat.extrapolation.chosen_checkpoints = parse_i32(toks[3], line);
      cat.extrapolation.candidates_considered = parse_u64(toks[4], line);
      cat.extrapolation.candidates_realistic = parse_u64(toks[5], line);
      cat.extrapolation.fits_executed = parse_u64(toks[6], line);
      cat.extrapolation.duplicate_fits_eliminated = parse_u64(toks[7], line);
    }
    p.categories.push_back(std::move(cat));
  }
  {
    const std::string line = next_line(is, "end prediction");
    if (line != "end prediction") fail("expected end prediction", line);
  }
  return p;
}

}  // namespace estima::core
