// The benchmark's own arithmetic: percentiles, quartiles, failure
// counting and span self time. Kept apart from the load generator so the
// self-tests (selftest.cpp) pin exactly the functions the reports use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `sorted` must be ascending and non-empty; p in
/// (0, 100].
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::max<std::size_t>(rank, 1);
  return sorted[std::min(rank, sorted.size()) - 1];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The three cut points Python's statistics.quantiles(v, n=4) returns
/// (its default "exclusive" method), which is how run-to-run spread is
/// judged: spread = (q3 - q1) / median. Needs at least two samples.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
inline Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1.0;
  const auto cut = [&](int i) {
    // statistics.quantiles: j = floor(i*m/4), delta = i*m - j*4, clamped
    // to the first and last interval.
    long j = static_cast<long>(std::floor(i * m / 4.0));
    const long n = static_cast<long>(v.size());
    j = std::min(std::max(j, 1L), n - 1);
    const double delta = i * m - static_cast<double>(j) * 4.0;
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

/// One measurement window: its completed requests and, sorted, the
/// latencies of the timed requests that completed in it.
struct WindowStats {
  std::int64_t begin_ns = 0, end_ns = 0;
  std::size_t requests = 0;
  double rps = 0;
  std::vector<double> latencies;
  /// Filled in from the benchmark's /proc samples.
  double steal_share = 0, cpu_s = 0;
};

/// Splits a measured phase that began at `start_ns` into `k` windows of
/// equal completed-request count, in completion order. `done_ns` holds
/// every request's completion time; `timed` the (completion time,
/// latency) of the requests whose latency is reported. Windows let the
/// benchmark set aside the stretches a noisy host spoiled.
inline std::vector<WindowStats> window_stats(
    std::int64_t start_ns, std::vector<std::int64_t> done_ns,
    std::vector<std::pair<std::int64_t, double>> timed, std::size_t k) {
  std::sort(done_ns.begin(), done_ns.end());
  std::sort(timed.begin(), timed.end());
  const std::size_t n = done_ns.size();
  k = std::min(std::max<std::size_t>(k, 1), std::max<std::size_t>(n, 1));
  std::vector<WindowStats> out;
  std::size_t t = 0;
  for (std::size_t j = 0; j < k && n > 0; ++j) {
    const std::size_t lo = n * j / k, hi = n * (j + 1) / k;
    WindowStats w;
    w.begin_ns = lo == 0 ? start_ns : done_ns[lo - 1];
    w.end_ns = done_ns[hi - 1];
    w.requests = hi - lo;
    w.rps = w.end_ns > w.begin_ns ? static_cast<double>(w.requests) * 1e9 /
                                        static_cast<double>(w.end_ns - w.begin_ns)
                                  : 0;
    while (t < timed.size() && (timed[t].first <= w.end_ns || j + 1 == k)) {
      w.latencies.push_back(timed[t++].second);
    }
    std::sort(w.latencies.begin(), w.latencies.end());
    out.push_back(std::move(w));
  }
  return out;
}

/// Which samples to keep on a shared host: every sample during which the
/// hypervisor stole at most `max_share` of the host's CPU time, topped up
/// with the least-stolen others until at least a quarter of the samples
/// (and at least `min_keep`) are kept. Returns indices into `steal`.
inline std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                             double max_share,
                                             std::size_t min_keep) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t keep = std::max(min_keep, (steal.size() + 3) / 4);
  while (keep < idx.size() && steal[idx[keep]] <= max_share) ++keep;
  idx.resize(std::min(keep, idx.size()));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Failure accounting for one run: every attempt lands in exactly one of
/// ok / http_error (non-2xx) / transport_error (no complete response) /
/// wrong_answer (a 2xx whose body failed its check).
struct Outcomes {
  std::uint64_t ok = 0;
  std::uint64_t http_error = 0;
  std::uint64_t transport_error = 0;
  std::uint64_t wrong_answer = 0;

  std::uint64_t attempted() const {
    return ok + http_error + transport_error + wrong_answer;
  }
  std::uint64_t failed() const {
    return http_error + transport_error + wrong_answer;
  }
  /// Share of attempts that failed, in percent (0 with no attempts).
  double failed_pct() const {
    const std::uint64_t a = attempted();
    return a == 0 ? 0.0
                  : 100.0 * static_cast<double>(failed()) /
                        static_cast<double>(a);
  }
  Outcomes& operator+=(const Outcomes& o) {
    ok += o.ok;
    http_error += o.http_error;
    transport_error += o.transport_error;
    wrong_answer += o.wrong_answer;
    return *this;
  }
  /// A 2xx response later found wrong moves from ok to wrong_answer.
  void reclassify_wrong() {
    if (ok > 0) --ok;
    ++wrong_answer;
  }
};

/// One recorded interval. Spans of one request share `request`; `parent`
/// is the index of the enclosing span in the same log, or -1 for a root.
struct Span {
  std::uint64_t request = 0;
  const char* name = "";  ///< a string literal
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once; any
/// part of a child outside its parent is ignored).
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& c : spans) {
    if (c.parent < 0 || c.parent >= static_cast<std::int64_t>(spans.size())) {
      continue;
    }
    const Span& s = spans[static_cast<std::size_t>(c.parent)];
    const std::int64_t a = std::max(c.start_ns, s.start_ns);
    const std::int64_t b = std::min(c.end_ns, s.end_ns);
    if (b > a) kids[static_cast<std::size_t>(c.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0, reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& iv : k) {
      const std::int64_t from = std::max(iv.first, reach);
      if (iv.second > from) covered += iv.second - from;
      reach = std::max(reach, iv.second);
    }
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

}  // namespace perfbench
