#include "numeric/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace estima::numeric {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double rmse_at(const std::vector<double>& pred,
               const std::vector<double>& truth,
               const std::vector<std::size_t>& indices) {
  assert(std::all_of(indices.begin(), indices.end(), [&](std::size_t i) {
    return i < pred.size() && i < truth.size();
  }));
  return rmse_at(pred.data(), truth.data(), indices);
}

double rmse_at(const double* pred, const double* truth,
               const std::vector<std::size_t>& indices) {
  if (indices.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t idx : indices) {
    const double d = pred[idx] - truth[idx];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(indices.size()));
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

double max_relative_error_pct(const std::vector<double>& pred,
                              const std::vector<double>& truth) {
  assert(pred.size() == truth.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (truth[i] == 0.0) continue;
    worst = std::max(worst,
                     std::fabs(pred[i] - truth[i]) / std::fabs(truth[i]));
  }
  return 100.0 * worst;
}

double mean_relative_error_pct(const std::vector<double>& pred,
                               const std::vector<double>& truth) {
  assert(pred.size() == truth.size());
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (truth[i] == 0.0) continue;
    acc += std::fabs(pred[i] - truth[i]) / std::fabs(truth[i]);
    ++count;
  }
  return count ? 100.0 * acc / static_cast<double>(count) : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace estima::numeric
