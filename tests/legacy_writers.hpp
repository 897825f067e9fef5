// Test oracle: the ostream writers the prediction record and the
// measurement CSV were first emitted with, kept verbatim so the to_chars
// writers in src/core can be held byte-equal to them. Both formats are
// on-disk and on-wire (snapshots, /v1/predict bodies, campaign files), so
// the production writers may never drift from these bytes without a
// format version bump.
//
// Stream-state caveat, which is exactly why they left production: these
// format through the stream's own flags and locale. Call them on a fresh
// std::ostringstream imbued with the classic locale (legacy_record /
// legacy_csv below do) to get the reference bytes.
#pragma once

#include <iomanip>
#include <limits>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>

#include "core/kernels.hpp"
#include "core/measurement.hpp"
#include "core/predictor.hpp"

namespace estima::testing {

namespace legacy_detail {

inline void write_fn(std::ostream& os, const char* tag,
                     const core::FittedFunction& fn) {
  os << tag << ' ' << core::kernel_name(fn.type) << ' ' << fn.y_scale << ' '
     << fn.params.size();
  for (double p : fn.params) os << ' ' << p;
  os << '\n';
}

}  // namespace legacy_detail

inline void legacy_write_prediction(std::ostream& os,
                                    const core::Prediction& p) {
  const auto saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);

  os << "prediction v=1\n";
  os << "cores " << p.cores.size();
  for (int c : p.cores) os << ' ' << c;
  os << '\n';
  os << "time_s " << p.time_s.size();
  for (double v : p.time_s) os << ' ' << v;
  os << '\n';
  os << "stalls_per_core " << p.stalls_per_core.size();
  for (double v : p.stalls_per_core) os << ' ' << v;
  os << '\n';
  legacy_detail::write_fn(os, "factor_fn", p.factor_fn);
  os << "factor_correlation " << p.factor_correlation << '\n';
  os << "freq_scale " << p.freq_scale << '\n';
  os << "factor_stats " << p.factor_stats.candidates_attempted << ' '
     << p.factor_stats.fits_executed << ' '
     << p.factor_stats.duplicate_fits_eliminated << ' '
     << p.factor_stats.realism_variants << ' '
     << p.factor_stats.variant_refits_avoided << '\n';
  os << "factor_used_relaxed_realism "
     << (p.factor_used_relaxed_realism ? 1 : 0) << '\n';

  os << "categories " << p.categories.size() << '\n';
  for (const auto& cat : p.categories) {
    os << "category " << core::stall_domain_prefix(cat.domain) << ' '
       << cat.name << '\n';
    os << "values " << cat.values.size();
    for (double v : cat.values) os << ' ' << v;
    os << '\n';
    legacy_detail::write_fn(os, "best", cat.extrapolation.best);
    os << "extrap " << cat.extrapolation.checkpoint_rmse << ' '
       << cat.extrapolation.chosen_prefix << ' '
       << cat.extrapolation.chosen_checkpoints << ' '
       << cat.extrapolation.candidates_considered << ' '
       << cat.extrapolation.candidates_realistic << ' '
       << cat.extrapolation.fits_executed << ' '
       << cat.extrapolation.duplicate_fits_eliminated << '\n';
  }
  os << "end prediction\n";
  os.precision(saved_precision);
}

inline void legacy_write_csv(std::ostream& os, const core::MeasurementSet& ms) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "# workload=" << ms.workload << " machine=" << ms.machine
     << " freq_ghz=" << ms.freq_ghz << " dataset_bytes=" << ms.dataset_bytes
     << "\n";
  os << "cores,time_s";
  for (const auto& cat : ms.categories) {
    os << ',' << core::stall_domain_prefix(cat.domain) << ':' << cat.name;
  }
  os << "\n";
  for (std::size_t i = 0; i < ms.cores.size(); ++i) {
    os << ms.cores[i] << ',' << ms.time_s[i];
    for (const auto& cat : ms.categories) os << ',' << cat.values[i];
    os << "\n";
  }
}

/// The reference bytes: the legacy writer on a pristine classic-locale
/// stream.
inline std::string legacy_record(const core::Prediction& p) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  legacy_write_prediction(os, p);
  return os.str();
}

inline std::string legacy_csv(const core::MeasurementSet& ms) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  legacy_write_csv(os, ms);
  return os.str();
}

}  // namespace estima::testing
