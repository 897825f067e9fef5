// Numeric cell emission, whole-cell numeric parsing and line
// normalization shared by every text format in the tree (measurement CSV,
// prediction records, snapshots).
//
// One implementation on purpose: the CSV and snapshot formats both
// advertise a bit-exact round-trip, so their emit rules and their
// accept/reject rules for a numeric cell must never diverge.
//
// Emission never goes through an ostream: the bytes must not depend on a
// caller's stream flags (fixed, showpos, width) or on the global locale (a
// decimal comma or digit grouping would produce cells the parsers below
// reject). write_f64 writes what printf("%.17g") writes — max_digits10
// significant digits, "inf"/"-inf"/"nan"/"-nan" for the non-finite values
// — so every double reads back bit-identical. It has the parsers' two-step
// shape (text_parse.cpp):
//   - Fast path: a normal double with decimal exponent k in [-11, 16]
//     (1e-11 <= |v| < 1e17). For v = m*2^e and q = 16-k, v*10^q =
//     m*5^q*2^(e+q) with m*5^q < 2^53*5^27 < 2^116, so one unsigned
//     __int128 product and shift give the 17-digit integer and its exact
//     remainder; rounding that remainder half-to-even is printf's rule.
//     The digits are one leading digit and two 8-digit words, each word
//     turned into eight ASCII bytes at once in a 64-bit register (SWAR),
//     and stored straight into the output the way %g lays them out.
//   - Fallback: zero, subnormals, inf/nan and every other magnitude take
//     std::to_chars(v, general, 17) unchanged.
// Both steps write the correctly rounded 17 digits in the same layout, so
// which one ran never shows in the bytes.
//
// Parsing is defined by strtod/strtoll/strtoull, not istream extraction
// or stod: strtod accepts "inf"/"-inf"/"nan" (which istream rejects), and
// the whole-cell check rejects trailing garbage ("1x" must not parse as
// 1, silently corrupting a campaign). Callers wrap the nullopt into their
// own error message (with their own line numbers / line text), so
// diagnostics stay format-specific while the semantics stay shared.
//
// The parsers take the cell as a view and run in two steps:
//   - Fast path: std::from_chars over the view. Its result is used only
//     when it consumed the whole cell with errc{} and, for doubles, gave
//     a finite value. Plain decimal cells — everything the emitters
//     write except inf/nan — take this path, with no copy and no errno.
//   - Fallback: anything else is copied into a std::string and decided by
//     the strtod/strtoll/strtoull rule unchanged (detail::parse_*_rule).
//     That covers leading whitespace, '+', hex floats, inf/nan with sign
//     and payload, overflow (rejected), underflow to zero (kept: from_chars
//     reports it as out of range, strtod returns the zero) and every
//     rejection. Subnormals take the fast path; both parsers round them
//     the same way.
// The two steps cannot disagree: from_chars's grammar is a subset of
// strtod's, strtoll's and strtoull's, an in-range from_chars integer is
// the strtoll/strtoull value, and both double parsers round correctly to
// nearest. Precondition: the "C" locale for LC_NUMERIC (strtod would
// otherwise take a locale decimal point) and the default rounding mode
// (from_chars and append_f64 always round to nearest; strtod and printf
// follow fesetround). The daemon, the benches and the tests never change
// either.
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace estima::core::textparse {

/// Bytes write_f64 and write_int may store from `out`. The text itself
/// is at most 24 bytes (sign, 17 digits, '.', "e-308"); the rest is room
/// for the fixed-size word stores past it, which the next write
/// overwrites.
inline constexpr std::size_t kNumberRoom = 32;

/// Writes `v` as printf("%.17g", v) would, independent of any stream or
/// locale state, and returns the end of the text. `out` must have
/// kNumberRoom bytes of room.
char* write_f64(char* out, double v);

/// Appends `v` as write_f64 writes it.
inline void append_f64(std::string& out, double v) {
  char buf[kNumberRoom];
  out.append(buf, write_f64(buf, v));
}

/// Writes a plain decimal integer (no grouping, no '+') and returns the
/// end of the text. `out` must have kNumberRoom bytes of room.
template <typename Int>
inline char* write_int(char* out, Int v) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>,
                "write_int takes an integer");
  // 20 digits of a u64, or a sign and 19 digits of an i64.
  const auto r = std::to_chars(out, out + kNumberRoom, v);
  if (r.ec != std::errc()) {
    throw std::logic_error("write_int: to_chars buffer too small");
  }
  return r.ptr;
}

/// Appends `v` as write_int writes it.
template <typename Int>
inline void append_int(std::string& out, Int v) {
  char buf[kNumberRoom];
  out.append(buf, write_int(buf, v));
}

/// Drops a trailing '\r' so CRLF files parse identically to LF files on
/// every line.
inline void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

inline void strip_cr(std::string_view& line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
}

namespace detail {

/// The strtod rule that defines parse_f64: the entire cell must be one
/// number (literal "inf"/"nan" included), and overflow is rejected — a
/// typo'd exponent ("1e999") must not silently load as infinity.
/// Underflow is NOT rejected (glibc sets ERANGE for denormals too, and the
/// bit-exact round-trip carries denormals).
inline std::optional<double> parse_f64_rule(const std::string& cell) {
  if (cell.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return std::nullopt;
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    return std::nullopt;
  }
  return v;
}

/// The strtoll rule that defines parse_i32: whole cell, within `int`.
inline std::optional<int> parse_i32_rule(const std::string& cell) {
  if (cell.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size() || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

/// The strtoull rule that defines parse_u64: whole cell, no leading '-'.
inline std::optional<std::uint64_t> parse_u64_rule(const std::string& cell) {
  if (cell.empty() || cell[0] == '-') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

/// True when std::from_chars read all of `cell` as one T (the fast path).
template <typename T>
bool from_chars_whole(std::string_view cell, T& v) {
  if (cell.empty()) return false;
  const char* const last = cell.data() + cell.size();
  const auto r = std::from_chars(cell.data(), last, v);
  return r.ec == std::errc() && r.ptr == last;
}

}  // namespace detail

/// Whole-cell double (parse_f64_rule's semantics, from_chars fast path).
inline std::optional<double> parse_f64(std::string_view cell) {
  double v = 0.0;
  if (detail::from_chars_whole(cell, v) && std::isfinite(v)) return v;
  return detail::parse_f64_rule(std::string(cell));
}

/// Whole-cell decimal int within `int` range (parse_i32_rule's semantics).
inline std::optional<int> parse_i32(std::string_view cell) {
  int v = 0;
  if (detail::from_chars_whole(cell, v)) return v;
  return detail::parse_i32_rule(std::string(cell));
}

/// Whole-cell decimal u64 (parse_u64_rule's semantics).
inline std::optional<std::uint64_t> parse_u64(std::string_view cell) {
  std::uint64_t v = 0;
  if (detail::from_chars_whole(cell, v)) return v;
  return detail::parse_u64_rule(std::string(cell));
}

}  // namespace estima::core::textparse
