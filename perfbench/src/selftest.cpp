// Self-tests of the benchmark's own arithmetic and input generation. They
// run at the start of every benchmark run (a failure aborts it) and on
// their own with --selftest.
#include <cmath>
#include <cstdio>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test failed: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentiles() {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  expect(percentile_sorted(v, 50) == 5, "p50 of 1..10 is 5 (nearest rank)");
  expect(percentile_sorted(v, 90) == 9, "p90 of 1..10 is 9");
  expect(percentile_sorted(v, 91) == 10, "p91 of 1..10 is 10");
  expect(percentile_sorted(v, 100) == 10, "p100 is the maximum");
  expect(percentile_sorted({42}, 50) == 42, "percentile of one sample");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
  // Reference values from Python: statistics.quantiles(v, n=4).
  const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
         "quartiles of 1..10 are [2.75, 5.5, 8.25]");
  const Quartiles q2 = quartiles({7, 1, 3});
  expect(near(q2.q1, 1.0) && near(q2.q2, 3.0) && near(q2.q3, 7.0),
         "quartiles of [1, 3, 7] are [1.0, 3.0, 7.0]");
  const Quartiles q3 = quartiles({1, 2});
  expect(near(q3.q1, 0.75) && near(q3.q2, 1.5) && near(q3.q3, 2.25),
         "quartiles of [1, 2] are [0.75, 1.5, 2.25]");
}

void test_windows() {
  // Eight completions at 1..8 s after a start at 0, two windows of four:
  // window 1 spans (0, 4] s, window 2 (4, 8] s.
  std::vector<std::int64_t> done;
  std::vector<std::pair<std::int64_t, double>> timed;
  for (int i = 1; i <= 8; ++i) {
    done.push_back(i * 1000000000LL);
    timed.emplace_back(i * 1000000000LL, static_cast<double>(i));
  }
  const auto w = window_stats(0, done, timed, 2);
  expect(w.size() == 2 && near(w[0].rps, 1.0) && near(w[1].rps, 1.0),
         "window rate = requests / window time");
  expect(w[0].latencies == std::vector<double>({1, 2, 3, 4}) &&
             w[1].latencies == std::vector<double>({5, 6, 7, 8}),
         "a window holds the latencies of the requests completed in it");
  expect(window_stats(0, done, timed, 100).size() == 8,
         "no more windows than requests");
}

void test_least_stolen() {
  using V = std::vector<std::size_t>;
  expect(least_stolen({0, 0.01, 0.3, 0, 0.5}, 0.02, 1) == V({0, 1, 3}),
         "clean samples are kept, stolen ones set aside");
  expect(least_stolen({0.3, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}, 0.02, 1) ==
             V({0, 1}),
         "with nothing clean, the least-stolen quarter is kept");
  expect(least_stolen({0.3, 0.2, 0.4}, 0.02, 2) == V({0, 1}),
         "never fewer than min_keep");
}

void test_failure_counting() {
  Outcomes o;
  o.ok = 96;
  o.http_error = 1;
  o.transport_error = 1;
  o.wrong_answer = 2;
  expect(o.attempted() == 100 && o.failed() == 4, "attempted / failed");
  expect(near(o.failed_pct(), 4.0), "failed_pct = failed / attempted");
  o.reclassify_wrong();
  expect(o.ok == 95 && o.wrong_answer == 3 && o.attempted() == 100,
         "a late wrong answer moves from ok to failed");
  Outcomes sum;
  sum += o;
  sum += o;
  expect(sum.attempted() == 200 && near(sum.failed_pct(), 5.0),
         "outcomes add up");
  expect(Outcomes{}.failed_pct() == 0, "no attempts, no failures");
}

void test_self_time() {
  // root [0, 100) with children [10, 30), [20, 50) (overlapping) and
  // [90, 120) (sticks out of the parent); grandchild [12, 14).
  std::vector<Span> s = {
      {1, "root", -1, 0, 100},  {1, "a", 0, 10, 30},
      {1, "b", 0, 20, 50},      {1, "c", 0, 90, 120},
      {1, "a.x", 1, 12, 14},    {2, "other", -1, 0, 7},
  };
  const std::vector<std::int64_t> self = self_times_ns(s);
  expect(self[0] == 100 - 40 - 10, "self = span - union of children");
  expect(self[1] == 20 - 2, "self excludes only direct children");
  expect(self[2] == 30 && self[3] == 30, "leaves keep their duration");
  expect(self[5] == 7, "a root without children keeps its duration");
}

std::string all_bodies(const Plan& p) {
  std::string out;
  for (const Round& r : p.rounds) {
    for (int c = 0; c < kClients; ++c) {
      for (const auto* list : {&r.setup[c], &r.measured[c]}) {
        for (const Request& q : *list) out += p.raws[q.raw];
      }
    }
  }
  return out;
}

void test_inputs() {
  for (Workload w : {Workload::kWarmRepeat, Workload::kColdFit,
                     Workload::kStreamAppend}) {
    const std::string a = all_bodies(make_plan(w, 7, 1));
    const std::string b = all_bodies(make_plan(w, 7, 1));
    const std::string c = all_bodies(make_plan(w, 8, 1));
    const std::string name = workload_name(w);
    expect(!a.empty() && a == b,
           (name + ": same seed gives byte-identical requests").c_str());
    expect(a != c, (name + ": another seed gives other requests").c_str());
  }
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_percentiles();
  test_windows();
  test_least_stolen();
  test_failure_counting();
  test_self_time();
  test_inputs();
  return failures;
}

}  // namespace perfbench
