// Measurement containers: what ESTIMA collects on the measurements machine
// and what the simulator / samplers emit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace estima::core {

/// Where a stall-cycle category was measured.
enum class StallDomain {
  kHardwareBackend,   ///< Table 2 / Table 3 backend dispatch/allocation stalls
  kHardwareFrontend,  ///< instruction fetch/decode stalls (Table 6 ablation)
  kSoftware,          ///< STM aborted cycles, lock/barrier spin cycles
};

std::string stall_domain_name(StallDomain d);

/// The on-disk domain tag shared by every text format (CSV column headers,
/// prediction records): "hw" / "fe" / "sw". One mapping on purpose — a
/// future StallDomain must serialize identically everywhere.
std::string stall_domain_prefix(StallDomain d);

/// Inverse of stall_domain_prefix; throws std::invalid_argument on an
/// unknown tag.
StallDomain stall_domain_from_prefix(const std::string& p);

/// One stall-cycle category: total cycles summed over all active cores, one
/// value per measured core count.
struct StallSeries {
  std::string name;        ///< e.g. "0D6h Dispatch Stall for RS Full"
  StallDomain domain = StallDomain::kHardwareBackend;
  std::vector<double> values;  ///< aligned with MeasurementSet::cores
};

/// A full measurement campaign on one machine: execution time and stall
/// categories at each measured core count.
struct MeasurementSet {
  std::string workload;
  std::string machine;
  double freq_ghz = 0.0;       ///< clock of the measurements machine
  double dataset_bytes = 0.0;  ///< memory footprint (weak scaling input)
  std::vector<int> cores;      ///< measured core counts, ascending
  std::vector<double> time_s;  ///< execution time per core count
  std::vector<StallSeries> categories;

  std::size_t num_points() const { return cores.size(); }

  /// Sum of the selected domains' stall values at measurement point i.
  double total_stalls_at(std::size_t i, bool include_frontend,
                         bool include_software) const;

  /// Total stalled cycles per core at each measured point (Σ categories / n).
  std::vector<double> stalls_per_core(bool include_frontend,
                                      bool include_software) const;

  /// Keeps only the first k measurement points (truncating a campaign to a
  /// smaller "measurements machine"). k must be <= num_points().
  MeasurementSet truncated(std::size_t k) const;

  /// Returns the measurement restricted to the given stall domains.
  MeasurementSet filtered(bool include_frontend, bool include_software) const;

  /// Basic shape validation; throws std::invalid_argument on inconsistency.
  void validate() const;
};

/// Serialises to the on-disk CSV format:
///   # workload=... machine=... freq_ghz=... dataset_bytes=...
///   cores,time_s,hw:<name>,fe:<name>,sw:<name>,...
/// Doubles are written %.17g and integers plain (core/text_parse.hpp), and
/// the row bytes go out unformatted: the stream's flags and locale never
/// change them.
void write_csv(std::ostream& os, const MeasurementSet& ms);

/// Parses the CSV format above from an in-memory body, in place: lines and
/// cells are views over `body` (no stream, no per-cell string), and
/// numbers go through core/text_parse.hpp's whole-cell rule (from_chars,
/// strtod for anything from_chars does not take whole). Line handling is
/// std::getline's: '\n' ends a line, a trailing '\r' is dropped, and a
/// final line needs no '\n'. Blank lines and '#' lines between data rows
/// are skipped. A data row has exactly one cell per column — a trailing
/// ',' counts as an empty (rejected) cell — while a trailing ',' on the
/// column header adds no column. The header must start with
/// cores,time_s; metadata numbers (freq_ghz, dataset_bytes) follow the
/// cell rule. Throws std::invalid_argument, naming the line, on any
/// malformed input.
MeasurementSet read_csv(std::string_view body);

/// The same parse over a stream (files, tests): reads the rest of `is` in
/// one go and calls read_csv(std::string_view).
MeasurementSet read_csv(std::istream& is);

/// File-based convenience wrappers.
void save_csv(const std::string& path, const MeasurementSet& ms);
MeasurementSet load_csv(const std::string& path);

}  // namespace estima::core
