#include "core/measurement.hpp"

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
double parse_double_cell(const std::string& cell, std::size_t line_no) {
  const auto v = textparse::parse_f64(cell);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: line " +
                              std::to_string(line_no) +
                              ": malformed numeric cell '" + cell + "'");
}

int parse_int_cell(const std::string& cell, std::size_t line_no) {
  const auto v = textparse::parse_i32(cell);
  if (v) return *v;
  throw std::invalid_argument("measurement csv: line " +
                              std::to_string(line_no) +
                              ": malformed core-count cell '" + cell + "'");
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

MeasurementSet read_csv(std::istream& is) {
  MeasurementSet ms;
  std::string line;
  // CRLF files must parse identically to LF files on every line: a '\r'
  // surviving into the last column header would silently rename the last
  // category (changing its campaign hash), not just break data rows.
  const auto strip_cr = [](std::string& l) { textparse::strip_cr(l); };

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
        StallSeries s;
        s.domain = stall_domain_from_prefix(col.substr(0, colon));
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
