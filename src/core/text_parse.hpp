// Numeric cell emission, whole-cell numeric parsing and line
// normalization shared by every text format in the tree (measurement CSV,
// prediction records, snapshots).
//
// One implementation on purpose: the CSV and snapshot formats both
// advertise a bit-exact round-trip, so their emit rules and their
// accept/reject rules for a numeric cell must never diverge.
//
// Emission goes through std::to_chars, never an ostream: the bytes must
// not depend on a caller's stream flags (fixed, showpos, width) or on the
// global locale (a decimal comma or digit grouping would produce cells
// the parsers below reject). append_f64 writes what printf("%.17g")
// writes — max_digits10 significant digits, "inf"/"-inf"/"nan"/"-nan" for
// the non-finite values — so every double reads back bit-identical.
//
// Parsing goes through strtod/strtoll,
// not istream extraction or stod: strtod accepts "inf"/"-inf"/"nan"
// (which istream rejects), and the whole-cell check rejects trailing
// garbage ("1x" must not parse as 1, silently corrupting a campaign).
// Callers wrap the nullopt into their own error message (with their own
// line numbers / line text), so diagnostics stay format-specific while
// the semantics stay shared.
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace estima::core::textparse {

/// Appends `v` as printf("%.17g", v) would, independent of any stream or
/// locale state.
inline void append_f64(std::string& out, double v) {
  // Longest %.17g form: sign, 17 digits, '.', "e-308" = 24 chars.
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general,
                               std::numeric_limits<double>::max_digits10);
  if (r.ec != std::errc()) {
    throw std::logic_error("append_f64: to_chars buffer too small");
  }
  out.append(buf, r.ptr);
}

/// Appends a plain decimal integer (no grouping, no '+').
template <typename Int>
inline void append_int(std::string& out, Int v) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>,
                "append_int takes an integer");
  char buf[24];  // 20 digits of a u64, or a sign and 19 digits of an i64
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  if (r.ec != std::errc()) {
    throw std::logic_error("append_int: to_chars buffer too small");
  }
  out.append(buf, r.ptr);
}

/// Drops a trailing '\r' so CRLF files parse identically to LF files on
/// every line.
inline void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// Whole-cell double: the entire cell must be one number (literal "inf"/
/// "nan" included). Returns nullopt otherwise — including on overflow: a
/// typo'd exponent ("1e999") must be rejected, not silently loaded as
/// infinity. Underflow is NOT rejected (glibc sets ERANGE for denormals
/// too, and the bit-exact round-trip carries denormals).
inline std::optional<double> parse_f64(const std::string& cell) {
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

/// Whole-cell decimal int within `int` range.
inline std::optional<int> parse_i32(const std::string& cell) {
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

/// Whole-cell decimal u64.
inline std::optional<std::uint64_t> parse_u64(const std::string& cell) {
  if (cell.empty() || cell[0] == '-') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace estima::core::textparse
