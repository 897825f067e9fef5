// Summary statistics used throughout the prediction pipeline.
#pragma once

#include <cstddef>
#include <vector>

namespace estima::numeric {

double mean(const std::vector<double>& v);
double variance(const std::vector<double>& v);   ///< population variance
double stddev(const std::vector<double>& v);

/// Root mean square error between two equally sized series.
double rmse(const std::vector<double>& a, const std::vector<double>& b);

/// RMSE of `pred` vs `truth` restricted to the given indices.
double rmse_at(const std::vector<double>& pred,
               const std::vector<double>& truth,
               const std::vector<std::size_t>& indices);

/// rmse_at over raw arrays; every index must be in range of both.
double rmse_at(const double* pred, const double* truth,
               const std::vector<std::size_t>& indices);

/// Pearson correlation coefficient in [-1, 1]. Returns 0 when either series
/// is constant (correlation undefined); callers treat that as "no signal".
double pearson(const std::vector<double>& a, const std::vector<double>& b);

/// Maximum relative error |a_i - b_i| / |b_i| over the series, in percent.
/// Entries with |b_i| == 0 are skipped.
double max_relative_error_pct(const std::vector<double>& pred,
                              const std::vector<double>& truth);

/// Mean relative error in percent (same conventions as above).
double mean_relative_error_pct(const std::vector<double>& pred,
                               const std::vector<double>& truth);

/// Linear interpolation-based quantile (q in [0,1]) of a copy of v.
double quantile(std::vector<double> v, double q);

}  // namespace estima::numeric
