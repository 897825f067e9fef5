#include "core/measurement.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/text_parse.hpp"

namespace estima::core {
namespace {

bool domain_selected(StallDomain d, bool include_frontend,
                     bool include_software) {
  switch (d) {
    case StallDomain::kHardwareBackend: return true;
    case StallDomain::kHardwareFrontend: return include_frontend;
    case StallDomain::kSoftware: return include_software;
  }
  return false;
}

// Whole-cell numeric parsing for data rows (semantics shared with every
// other text format via core/text_parse.hpp): trailing garbage ("1x")
// must not parse as 1, silently corrupting a campaign.
double parse_double_cell(std::string_view cell, std::size_t line_no) {
  const auto v = textparse::parse_f64(cell);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: line " +
                              std::to_string(line_no) +
                              ": malformed numeric cell '" +
                              std::string(cell) + "'");
}

int parse_int_cell(std::string_view cell, std::size_t line_no) {
  const auto v = textparse::parse_i32(cell);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: line " +
                              std::to_string(line_no) +
                              ": malformed core-count cell '" +
                              std::string(cell) + "'");
}

// Metadata numbers follow the data cells' whole-cell rule: "2.1GHz" and
// "1e999" are malformed input (a 400 at the router), not 2.1 and an
// internal error.
double metadata_number(std::string_view tok, std::string_view val) {
  const auto v = textparse::parse_f64(val);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: malformed metadata value '" +
                              std::string(tok) + "'");
}

// std::getline(is, line) over an in-memory body, plus the CR strip every
// line gets: the next line without its '\n'. False only once the body is
// exhausted — a final line without '\n' still counts, an empty remainder
// does not.
bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t nl = rest.find('\n');
  line = rest.substr(0, nl);
  rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
  textparse::strip_cr(line);
  return true;
}

// Pops the text up to the next ',' (or the rest of `s`) off the front.
std::string_view next_field(std::string_view& s) {
  const std::size_t comma = s.find(',');
  const std::string_view field = s.substr(0, comma);
  s.remove_prefix(comma == std::string_view::npos ? s.size() : comma + 1);
  return field;
}

}  // namespace

std::string stall_domain_name(StallDomain d) {
  switch (d) {
    case StallDomain::kHardwareBackend: return "hardware-backend";
    case StallDomain::kHardwareFrontend: return "hardware-frontend";
    case StallDomain::kSoftware: return "software";
  }
  return "?";
}

std::string stall_domain_prefix(StallDomain d) {
  switch (d) {
    case StallDomain::kHardwareBackend: return "hw";
    case StallDomain::kHardwareFrontend: return "fe";
    case StallDomain::kSoftware: return "sw";
  }
  return "hw";
}

StallDomain stall_domain_from_prefix(const std::string& p) {
  if (p == "hw") return StallDomain::kHardwareBackend;
  if (p == "fe") return StallDomain::kHardwareFrontend;
  if (p == "sw") return StallDomain::kSoftware;
  throw std::invalid_argument("unknown stall domain prefix: " + p);
}

double MeasurementSet::total_stalls_at(std::size_t i, bool include_frontend,
                                       bool include_software) const {
  double acc = 0.0;
  for (const auto& cat : categories) {
    if (!domain_selected(cat.domain, include_frontend, include_software))
      continue;
    acc += cat.values.at(i);
  }
  return acc;
}

std::vector<double> MeasurementSet::stalls_per_core(
    bool include_frontend, bool include_software) const {
  std::vector<double> out(cores.size(), 0.0);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    out[i] = total_stalls_at(i, include_frontend, include_software) /
             static_cast<double>(cores[i]);
  }
  return out;
}

MeasurementSet MeasurementSet::truncated(std::size_t k) const {
  if (k > num_points()) {
    throw std::invalid_argument("truncated: k exceeds measurement points");
  }
  MeasurementSet out = *this;
  out.cores.resize(k);
  out.time_s.resize(k);
  for (auto& cat : out.categories) cat.values.resize(k);
  return out;
}

MeasurementSet MeasurementSet::filtered(bool include_frontend,
                                        bool include_software) const {
  MeasurementSet out = *this;
  out.categories.clear();
  for (const auto& cat : categories) {
    if (domain_selected(cat.domain, include_frontend, include_software)) {
      out.categories.push_back(cat);
    }
  }
  return out;
}

void MeasurementSet::validate() const {
  if (cores.size() != time_s.size()) {
    throw std::invalid_argument("MeasurementSet: cores/time size mismatch");
  }
  for (std::size_t i = 1; i < cores.size(); ++i) {
    if (cores[i] <= cores[i - 1]) {
      throw std::invalid_argument("MeasurementSet: cores must be ascending");
    }
  }
  for (const auto& cat : categories) {
    if (cat.values.size() != cores.size()) {
      throw std::invalid_argument("MeasurementSet: category '" + cat.name +
                                  "' size mismatch");
    }
  }
}

void write_csv(std::ostream& os, const MeasurementSet& ms) {
  // Full round-trip precision (core/text_parse.hpp's emitters): predictions
  // must be identical when a campaign is saved and reloaded, whatever
  // flags or locale the destination stream carries.
  using textparse::append_f64;
  std::string out;
  out += "# workload=";
  out += ms.workload;
  out += " machine=";
  out += ms.machine;
  out += " freq_ghz=";
  append_f64(out, ms.freq_ghz);
  out += " dataset_bytes=";
  append_f64(out, ms.dataset_bytes);
  out += "\ncores,time_s";
  for (const auto& cat : ms.categories) {
    out += ',';
    out += stall_domain_prefix(cat.domain);
    out += ':';
    out += cat.name;
  }
  out += '\n';
  for (std::size_t i = 0; i < ms.cores.size(); ++i) {
    textparse::append_int(out, ms.cores[i]);
    out += ',';
    append_f64(out, ms.time_s[i]);
    for (const auto& cat : ms.categories) {
      out += ',';
      append_f64(out, cat.values[i]);
    }
    out += '\n';
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

MeasurementSet read_csv(std::string_view body) {
  MeasurementSet ms;
  std::string_view rest = body;
  std::string_view line;

  // Header comment with metadata. CRLF files must parse identically to LF
  // files on every line (next_line strips the '\r'): a '\r' surviving into
  // the last column header would silently rename the last category
  // (changing its campaign hash), not just break data rows.
  if (!next_line(rest, line) || line.empty() || line[0] != '#') {
    throw std::invalid_argument("measurement csv: missing metadata line");
  }
  {
    // Whitespace-separated key=value tokens, split like `istream >> tok`
    // in the classic locale.
    constexpr std::string_view kSpace = " \t\n\v\f\r";
    std::string_view meta = line.substr(1);
    for (;;) {
      const std::size_t begin = meta.find_first_not_of(kSpace);
      if (begin == std::string_view::npos) break;
      meta.remove_prefix(begin);
      const std::string_view tok = meta.substr(0, meta.find_first_of(kSpace));
      meta.remove_prefix(tok.size());
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string_view key = tok.substr(0, eq);
      const std::string_view val = tok.substr(eq + 1);
      if (key == "workload") {
        ms.workload = val;
      } else if (key == "machine") {
        ms.machine = val;
      } else if (key == "freq_ghz") {
        ms.freq_ghz = metadata_number(tok, val);
      } else if (key == "dataset_bytes") {
        ms.dataset_bytes = metadata_number(tok, val);
      }
    }
  }

  // Column header, split like std::getline(hdr, col, ','): a trailing ','
  // adds no empty column.
  if (!next_line(rest, line)) {
    throw std::invalid_argument("measurement csv: missing column header");
  }
  {
    std::string_view cols = line;
    int idx = 0;
    while (!cols.empty()) {
      const std::string_view col = next_field(cols);
      if (idx == 0 && col != "cores") {
        throw std::invalid_argument("measurement csv: first column != cores");
      }
      if (idx == 1 && col != "time_s") {
        throw std::invalid_argument("measurement csv: second column != time_s");
      }
      if (idx >= 2) {
        const std::size_t colon = col.find(':');
        if (colon == std::string_view::npos) {
          throw std::invalid_argument("measurement csv: category '" +
                                      std::string(col) +
                                      "' lacks domain prefix");
        }
        StallSeries s;
        s.domain = stall_domain_from_prefix(std::string(col.substr(0, colon)));
        s.name = col.substr(colon + 1);
        ms.categories.push_back(std::move(s));
      }
      ++idx;
    }
    if (idx < 2) {
      throw std::invalid_argument(
          "measurement csv: column header must start with cores,time_s");
    }
  }

  // Data rows. Every row must carry exactly cores, time_s and one cell per
  // declared category: a short or long row would otherwise leave the set
  // misaligned, surfacing (if at all) only as a confusing size-mismatch far
  // from the offending line.
  const std::size_t want = 2 + ms.categories.size();
  {
    // One row per remaining line at most, and a valid row takes at least
    // 2 * want bytes: the second bound keeps a wide header over a body of
    // blank lines from reserving more than the body's size.
    const std::size_t rows = std::min<std::size_t>(
        static_cast<std::size_t>(std::count(rest.begin(), rest.end(), '\n')) +
            1,
        rest.size() / (2 * want) + 1);
    ms.cores.reserve(rows);
    ms.time_s.reserve(rows);
    for (auto& cat : ms.categories) cat.values.reserve(rows);
  }
  std::size_t line_no = 2;  // metadata + column header already consumed
  while (next_line(rest, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // std::getline(row, cell, ',') drops the empty field after a trailing
    // separator; it is counted here, so "1,2.0,3.0," is rejected like any
    // other misaligned row: one cell per ',' plus one.
    const std::size_t cells =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) +
        1;
    if (cells != want) {
      throw std::invalid_argument(
          "measurement csv: line " + std::to_string(line_no) + " has " +
          std::to_string(cells) + " cells, expected " +
          std::to_string(want) + " (cores,time_s + one per category)");
    }
    std::string_view row = line;
    ms.cores.push_back(parse_int_cell(next_field(row), line_no));
    ms.time_s.push_back(parse_double_cell(next_field(row), line_no));
    for (auto& cat : ms.categories) {
      cat.values.push_back(parse_double_cell(next_field(row), line_no));
    }
  }
  ms.validate();
  return ms;
}

MeasurementSet read_csv(std::istream& is) {
  // std::getline's sentry: a stream that is not good() yields no lines.
  if (!is.good()) return read_csv(std::string_view{});
  std::ostringstream slurp;
  slurp << is.rdbuf();
  const std::string body = slurp.str();
  return read_csv(std::string_view(body));
}

void save_csv(const std::string& path, const MeasurementSet& ms) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  write_csv(os, ms);
}

MeasurementSet load_csv(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return read_csv(is);
}

}  // namespace estima::core
