// Test oracle: the stream-based measurement-CSV reader and the strtod /
// strtoll / strtoull whole-cell rule the parsers in src/core were first
// written with, kept verbatim so the in-place reader (read_csv over a
// std::string_view) and the from_chars fast path in core/text_parse.hpp
// can be held to them bitwise: the same value, or the same exception type
// and message.
//
// Two deliberate differences of the production reader are NOT here, and
// differential tests carve them out: metadata numbers (freq_ghz,
// dataset_bytes) went through std::stod — which loads "2.1GHz" as 2.1 and
// throws std::out_of_range on "1e999" — and a column header with fewer
// than two columns was accepted.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/measurement.hpp"

namespace estima::testing {

inline std::optional<double> legacy_parse_f64(const std::string& cell) {
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

inline std::optional<int> legacy_parse_i32(const std::string& cell) {
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

inline std::optional<std::uint64_t> legacy_parse_u64(const std::string& cell) {
  if (cell.empty() || cell[0] == '-') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

namespace legacy_detail {

inline double parse_double_cell(const std::string& cell, std::size_t line_no) {
  const auto v = legacy_parse_f64(cell);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: line " +
                              std::to_string(line_no) +
                              ": malformed numeric cell '" + cell + "'");
}

inline int parse_int_cell(const std::string& cell, std::size_t line_no) {
  const auto v = legacy_parse_i32(cell);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: line " +
                              std::to_string(line_no) +
                              ": malformed core-count cell '" + cell + "'");
}

inline void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace legacy_detail

inline core::MeasurementSet legacy_read_csv(std::istream& is) {
  using legacy_detail::parse_double_cell;
  using legacy_detail::parse_int_cell;
  core::MeasurementSet ms;
  std::string line;
  // CRLF files must parse identically to LF files on every line: a '\r'
  // surviving into the last column header would silently rename the last
  // category (changing its campaign hash), not just break data rows.
  const auto strip_cr = [](std::string& l) { legacy_detail::strip_cr(l); };

  // Header comment with metadata.
  if (!std::getline(is, line)) {
    throw std::invalid_argument("measurement csv: missing metadata line");
  }
  strip_cr(line);
  if (line.empty() || line[0] != '#') {
    throw std::invalid_argument("measurement csv: missing metadata line");
  }
  {
    std::istringstream meta(line.substr(1));
    std::string tok;
    while (meta >> tok) {
      const auto eq = tok.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "workload") ms.workload = val;
      else if (key == "machine") ms.machine = val;
      else if (key == "freq_ghz") ms.freq_ghz = std::stod(val);
      else if (key == "dataset_bytes") ms.dataset_bytes = std::stod(val);
    }
  }

  // Column header.
  if (!std::getline(is, line)) {
    throw std::invalid_argument("measurement csv: missing column header");
  }
  strip_cr(line);
  {
    std::istringstream hdr(line);
    std::string col;
    int idx = 0;
    while (std::getline(hdr, col, ',')) {
      if (idx == 0 && col != "cores") {
        throw std::invalid_argument("measurement csv: first column != cores");
      }
      if (idx == 1 && col != "time_s") {
        throw std::invalid_argument("measurement csv: second column != time_s");
      }
      if (idx >= 2) {
        const auto colon = col.find(':');
        if (colon == std::string::npos) {
          throw std::invalid_argument("measurement csv: category '" + col +
                                      "' lacks domain prefix");
        }
        core::StallSeries s;
        s.domain = core::stall_domain_from_prefix(col.substr(0, colon));
        s.name = col.substr(colon + 1);
        ms.categories.push_back(std::move(s));
      }
      ++idx;
    }
  }

  // Data rows. Every row must carry exactly cores, time_s and one cell per
  // declared category: a short or long row would otherwise leave the set
  // misaligned, surfacing (if at all) only as a confusing size-mismatch far
  // from the offending line.
  std::size_t line_no = 2;  // metadata + column header already consumed
  while (std::getline(is, line)) {
    ++line_no;
    strip_cr(line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(std::move(cell));
    // getline drops the empty field after a trailing separator; surface it
    // so "1,2.0,3.0," is rejected like any other misaligned row.
    if (line.back() == ',') cells.emplace_back();
    const std::size_t want = 2 + ms.categories.size();
    if (cells.size() != want) {
      throw std::invalid_argument(
          "measurement csv: line " + std::to_string(line_no) + " has " +
          std::to_string(cells.size()) + " cells, expected " +
          std::to_string(want) + " (cores,time_s + one per category)");
    }
    ms.cores.push_back(parse_int_cell(cells[0], line_no));
    ms.time_s.push_back(parse_double_cell(cells[1], line_no));
    for (std::size_t c = 0; c < ms.categories.size(); ++c) {
      ms.categories[c].values.push_back(
          parse_double_cell(cells[2 + c], line_no));
    }
  }
  ms.validate();
  return ms;
}

inline core::MeasurementSet legacy_read_csv(const std::string& body) {
  std::istringstream is(body);
  return legacy_read_csv(is);
}

}  // namespace estima::testing
