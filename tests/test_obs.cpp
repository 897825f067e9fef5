// The observability layer's trust anchor. Four layers of proof:
//
//   1. Histogram unit + torture — the pow-1.5 bucket ladder is exactly
//      what the header promises; the clz fast-path index agrees with the
//      portable lower_bound definition on every boundary; counts and
//      sums are EXACT (no sampling, no saturation), which the 8-thread
//      x 1M torture pins down under TSan: merged count == 8M, merged
//      sum == the arithmetic truth, per-bucket totals re-add to count.
//   2. JSON writer — escaping covers the mandatory set (quote,
//      backslash, controls), nesting/commas/indentation produce the
//      exact documents routes.cpp and the benches rely on.
//   3. Prometheus writer + validator — a rendered registry passes the
//      grammar validator; hand-broken documents (missing TYPE, bucket
//      cumulative decreasing, +Inf != count) are rejected with the
//      right complaint, so CI's scrape check actually checks something.
//   4. Tracing — trace-id wire format round-trips; spans land in schema
//      order with nested flags; the slow ring retains/bounds/orders;
//      and a real PredictionService::predict_one under a trace obeys
//      the span-accounting invariant: non-nested span time <= total.
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.hpp"
#include "obs/json_writer.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::obs {
namespace {

// ---------------------------------------------------------------------------
// 1. Histogram

TEST(HistogramBounds, LadderIsExactPowersOfOnePointFiveFrom1024) {
  const auto& b = Histogram::bounds();
  EXPECT_EQ(b.front(), 1024u);
  EXPECT_EQ(b.back(), UINT64_MAX);
  for (std::size_t i = 0; i + 2 < Histogram::kBucketCount; ++i) {
    // *1.5 exactly, in integers: v += v/2.
    EXPECT_EQ(b[i + 1], b[i] + b[i] / 2) << "at bucket " << i;
    EXPECT_LT(b[i], b[i + 1]);
  }
  // 63 finite bounds of x1.5 from 1024ns reach past 23 hours — far
  // beyond any request latency worth bucketing precisely.
  EXPECT_GT(b[Histogram::kBucketCount - 2],
            std::uint64_t{23} * 3600 * 1000000000ull);
}

// The portable definition the fast path must agree with.
std::size_t reference_bucket_index(std::uint64_t v) {
  const auto& b = Histogram::bounds();
  return static_cast<std::size_t>(
      std::lower_bound(b.begin(), b.end(), v) - b.begin());
}

TEST(HistogramBounds, BucketIndexMatchesLowerBoundOnEveryBoundary) {
  const auto& b = Histogram::bounds();
  std::vector<std::uint64_t> probes = {0, 1, 2, 1023, 1024, 1025};
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    probes.push_back(b[i] - 1);
    probes.push_back(b[i]);
    probes.push_back(b[i] + 1);
  }
  probes.push_back(UINT64_MAX - 1);
  probes.push_back(UINT64_MAX);
  // Power-of-two edges exercise the clz octave table directly.
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) probes.push_back(rng());
  for (const std::uint64_t v : probes) {
    ASSERT_EQ(Histogram::bucket_index(v), reference_bucket_index(v))
        << "value " << v;
  }
}

TEST(Histogram, CountAndSumAreExact) {
  Histogram h;
  std::uint64_t want_sum = 0;
  const std::vector<std::uint64_t> values = {0, 1, 500, 1024, 1025,
                                             999999, 1u << 30};
  for (const auto v : values) {
    h.record(v);
    want_sum += v;
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.sum, want_sum);
  std::uint64_t bucket_total = 0;
  for (const auto n : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(Histogram, TortureEightThreadsTimesOneMillionIsExact) {
  // The TSan target: concurrent record() on shared shards must be
  // race-free and lose nothing. Per-thread values are deterministic so
  // the expected sum is arithmetic, not bookkeeping.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000000;
  Histogram h;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Spread over several octaves so multiple buckets contend.
        h.record((i % 7) * 1000 + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      want_sum += (i % 7) * 1000 + static_cast<std::uint64_t>(t);
    }
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, want_sum);
  std::uint64_t bucket_total = 0;
  for (const auto n : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(Histogram, QuantilesLandInsideTheRightBucket) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(2000);  // bucket (1536, 2304]
  const auto snap = h.snapshot();
  const double p50 = snap.quantile(0.5);
  EXPECT_GT(p50, 1536.0);
  EXPECT_LE(p50, 2304.0);
  // Clamps, not crashes, outside [0,1]; empty histogram reports 0.
  EXPECT_GE(snap.quantile(2.0), snap.quantile(-1.0));
  EXPECT_EQ(Histogram().snapshot().quantile(0.5), 0.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameMetric) {
  Registry reg;
  Histogram* a = reg.histogram("estima_x_seconds", "stage=\"parse\"", "h");
  Histogram* b = reg.histogram("estima_x_seconds", "stage=\"parse\"", "h");
  Histogram* c = reg.histogram("estima_x_seconds", "stage=\"fit\"", "h");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.histograms().size(), 2u);
  Counter* ca = reg.counter("estima_events_total");
  ca->add(3);
  EXPECT_EQ(reg.counters().at(0).metric->value(), 3u);
}

// ---------------------------------------------------------------------------
// 2. JSON writer

TEST(JsonEscape, CoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
  // Non-ASCII passes through byte-for-byte (UTF-8 in, UTF-8 out).
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, NestedDocumentHasExactShape) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "a\"b");
  w.kv("n", 42);
  w.kv("rate", 1.5, 2);
  w.begin_object("inner");
  w.kv("flag", true);
  w.end_object();
  w.begin_array("xs");
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"n\": 42,\n"
            "  \"rate\": 1.50,\n"
            "  \"inner\": {\n"
            "    \"flag\": true\n"
            "  },\n"
            "  \"xs\": [\n"
            "    1,\n"
            "    2\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object();
  w.kv("bad", std::numeric_limits<double>::quiet_NaN(), 3);
  w.end_object();
  EXPECT_NE(w.str().find("\"bad\": null"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 3. Prometheus writer + validator

TEST(Prometheus, RenderedRegistryValidatesAndIsCumulative) {
  Registry reg;
  Histogram* h = reg.histogram("estima_stage_duration_seconds",
                               "stage=\"parse\"", "Per-stage latency.");
  h->record(2000);
  h->record(5000);
  reg.counter("estima_events_total", "", "Events.")->add(7);
  reg.gauge("estima_open_connections", "", "Open.")->set(3);

  PrometheusWriter w;
  w.registry(reg);
  const std::string text = w.str();
  const auto err = validate_prometheus_text(text);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_NE(text.find("# TYPE estima_stage_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("estima_stage_duration_seconds_bucket{stage=\"parse\","
                      "le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("estima_stage_duration_seconds_count{stage=\"parse\"} "
                      "2"),
            std::string::npos);
  EXPECT_NE(text.find("estima_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("estima_open_connections 3"), std::string::npos);
}

TEST(Prometheus, ValidatorRejectsBrokenDocuments) {
  // Sample before its family's # TYPE line.
  EXPECT_TRUE(validate_prometheus_text("estima_x_total 1\n").has_value());
  // Bad metric name.
  EXPECT_TRUE(validate_prometheus_text("# HELP 9bad x\n# TYPE 9bad counter\n"
                                       "9bad 1\n")
                  .has_value());
  // Missing value.
  EXPECT_TRUE(validate_prometheus_text("# HELP estima_x_total x\n"
                                       "# TYPE estima_x_total counter\n"
                                       "estima_x_total\n")
                  .has_value());
  // Histogram with a decreasing bucket cumulative.
  const std::string decreasing =
      "# HELP estima_h_seconds h\n"
      "# TYPE estima_h_seconds histogram\n"
      "estima_h_seconds_bucket{le=\"0.001\"} 5\n"
      "estima_h_seconds_bucket{le=\"+Inf\"} 3\n"
      "estima_h_seconds_sum 1\n"
      "estima_h_seconds_count 3\n";
  EXPECT_TRUE(validate_prometheus_text(decreasing).has_value());
  // +Inf bucket disagreeing with _count.
  const std::string mismatch =
      "# HELP estima_h_seconds h\n"
      "# TYPE estima_h_seconds histogram\n"
      "estima_h_seconds_bucket{le=\"+Inf\"} 3\n"
      "estima_h_seconds_sum 1\n"
      "estima_h_seconds_count 4\n";
  EXPECT_TRUE(validate_prometheus_text(mismatch).has_value());
  // An empty scrape body is rejected — a server answering /v1/metrics
  // with nothing is broken, not minimal.
  EXPECT_TRUE(validate_prometheus_text("").has_value());
  // Missing final newline is rejected.
  EXPECT_TRUE(validate_prometheus_text("# HELP estima_x_total x\n"
                                       "# TYPE estima_x_total counter\n"
                                       "estima_x_total 1")
                  .has_value());
}

TEST(Prometheus, ValidatorRejectsUnescapedLabelValues) {
  const auto doc = [](const std::string& labels) {
    return "# HELP estima_x_total x\n# TYPE estima_x_total counter\n"
           "estima_x_total{" +
           labels + "} 1\n";
  };
  // Baseline: properly escaped quote, backslash, newline all pass.
  EXPECT_FALSE(validate_prometheus_text(doc("a=\"q\\\"b\"")).has_value());
  EXPECT_FALSE(validate_prometheus_text(doc("a=\"q\\\\b\"")).has_value());
  EXPECT_FALSE(validate_prometheus_text(doc("a=\"q\\nb\"")).has_value());
  // A raw quote inside the value terminates it early and derails the
  // label grammar — rejected, never silently re-parsed.
  EXPECT_TRUE(validate_prometheus_text(doc("a=\"q\"b\"")).has_value());
  // A raw backslash starts an escape; anything but \\ \" \n is invalid,
  // and a backslash that swallows the closing quote never terminates.
  EXPECT_TRUE(validate_prometheus_text(doc("a=\"q\\tb\"")).has_value());
  EXPECT_TRUE(validate_prometheus_text(doc("a=\"q\\")).has_value());
  EXPECT_TRUE(validate_prometheus_text(doc("a=\"q\\\"")).has_value());
  // A raw newline splits the sample line: the first half has an
  // unterminated value, so the document is rejected as a whole.
  EXPECT_TRUE(validate_prometheus_text(doc("a=\"q\nb\"")).has_value());
}

// ---------------------------------------------------------------------------
// 4. Tracing

TEST(TraceId, WireFormatRoundTrips) {
  EXPECT_EQ(format_trace_id(0), "0000000000000000");
  EXPECT_EQ(format_trace_id(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(parse_trace_id("deadbeefcafef00d"), 0xdeadbeefcafef00dull);
  EXPECT_EQ(parse_trace_id("0xFF"), 0xffull);
  EXPECT_EQ(parse_trace_id("1"), 1ull);
  EXPECT_FALSE(parse_trace_id("").has_value());
  EXPECT_FALSE(parse_trace_id("xyz").has_value());
  EXPECT_FALSE(parse_trace_id("deadbeefcafef00d0").has_value());  // 17 digits
  const std::uint64_t ids[] = {0, 1, UINT64_MAX, 0x123456789abcdefull};
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(parse_trace_id(format_trace_id(id)), id);
  }
}

// format_trace_id writes nibbles from a table; snprintf("%016llx") is
// its oracle, on the extremes and on 10k seeded ids.
TEST(TraceId, FormatMatchesSnprintf) {
  const auto oracle = [](std::uint64_t id) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(id));
    return std::string(buf, 16);
  };
  EXPECT_EQ(format_trace_id(0), oracle(0));
  EXPECT_EQ(format_trace_id(UINT64_MAX), oracle(UINT64_MAX));
  std::mt19937_64 rng(31);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t id = rng();
    ASSERT_EQ(format_trace_id(id), oracle(id)) << i;
  }
}

TEST(Trace, SpansLandInSchemaOrderWithNestedFlags) {
  Registry reg;
  Tracer tracer(reg, TracerConfig{-1, 4});
  const auto t0 = TraceContext::Clock::now();
  TraceContext trace(&tracer, 7, t0);
  using std::chrono::microseconds;
  // Record out of schema order; snapshot must come back ordered.
  trace.add(Stage::kSerialize, t0 + microseconds(50), t0 + microseconds(60));
  trace.add(Stage::kParse, t0, t0 + microseconds(10));
  trace.add(Stage::kFitLevmar, t0 + microseconds(20), t0 + microseconds(40));
  trace.add(Stage::kParse, t0 + microseconds(15), t0 + microseconds(20));

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].stage, Stage::kParse);
  EXPECT_EQ(spans[0].count, 2u);
  EXPECT_EQ(spans[0].total_ns, 15000u);
  EXPECT_EQ(spans[0].start_off_ns, 0u);
  EXPECT_FALSE(spans[0].nested);
  EXPECT_EQ(spans[1].stage, Stage::kFitLevmar);
  EXPECT_TRUE(spans[1].nested);
  EXPECT_EQ(spans[2].stage, Stage::kSerialize);
  EXPECT_EQ(spans[2].start_off_ns, 50000u);

  // Stage histograms saw every occurrence.
  EXPECT_EQ(tracer.stage_histogram(Stage::kParse).snapshot().count, 2u);
  EXPECT_EQ(tracer.stage_histogram(Stage::kSerialize).snapshot().count, 1u);
}

TEST(Trace, StageNamesAreTheStableSchema) {
  const char* want[kStageCount] = {
      "edge.read",  "queue.wait", "parse",
      "cache.lookup", "fit.enumerate", "fit.levmar",
      "fit.realism", "serialize",  "edge.write", "edge.encode"};
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_STREQ(stage_name(static_cast<Stage>(i)), want[i]);
  }
}

TEST(Trace, SlowRingRetainsBoundsAndOrders) {
  Registry reg;
  TracerConfig cfg;
  cfg.slow_threshold_ms = 0;  // retain everything
  cfg.ring_capacity = 4;
  Tracer tracer(reg, cfg);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const auto t0 = TraceContext::Clock::now();
    auto trace = tracer.start(i, t0);
    trace->add(Stage::kParse, t0, t0 + std::chrono::microseconds(i));
    tracer.finish(*trace, t0 + std::chrono::microseconds(10 * i));
  }
  const auto slow = tracer.slow_traces();
  ASSERT_EQ(slow.size(), 4u);  // bounded by capacity: ids 3..6 survive
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].trace_id, i + 3);
    ASSERT_EQ(slow[i].spans.size(), 1u);
    EXPECT_EQ(slow[i].spans[0].stage, Stage::kParse);
    if (i > 0) EXPECT_GT(slow[i].seq, slow[i - 1].seq);  // oldest first
  }

  // A negative threshold disables retention entirely. Fresh registry:
  // sharing `reg` would alias the request histogram by name.
  Registry reg2;
  Tracer off(reg2, TracerConfig{-1, 4});
  const auto t0 = TraceContext::Clock::now();
  auto trace = off.start(0, t0);
  EXPECT_NE(trace->trace_id(), 0u);  // id 0 means "generate one"
  off.finish(*trace, t0 + std::chrono::seconds(5));
  EXPECT_TRUE(off.slow_traces().empty());
  // The request histogram still records.
  EXPECT_EQ(off.request_histogram().snapshot().count, 1u);
}

TEST(Trace, NullSpanTimerIsANoOp) {
  SpanTimer timer(nullptr, Stage::kParse);
  timer.stop();  // must not crash; nothing to assert beyond surviving
}

TEST(Trace, ConcurrentFinishAndSlowTracesTortureIsRaceFree) {
  // The slow ring is written by finish() on handler threads while
  // /v1/trace reads it via slow_traces() — this pins the ring_mu_
  // discipline under TSan: no torn SlowTrace is ever observed, and
  // every snapshot is internally consistent (bounded, seq-ordered,
  // spans intact).
  Registry reg;
  TracerConfig cfg;
  cfg.slow_threshold_ms = 0;  // every request lands in the ring
  cfg.ring_capacity = 8;
  Tracer tracer(reg, cfg);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const auto t0 = TraceContext::Clock::now();
        auto trace = tracer.start(
            static_cast<std::uint64_t>(w) * kPerWriter + i + 1, t0);
        trace->add(Stage::kParse, t0, t0 + std::chrono::microseconds(5));
        tracer.finish(*trace, t0 + std::chrono::microseconds(50));
      }
    });
  }
  std::thread reader([&] {
    std::size_t snapshots = 0;
    while (!done.load(std::memory_order_acquire) || snapshots == 0) {
      const auto slow = tracer.slow_traces();
      EXPECT_LE(slow.size(), 8u);
      for (std::size_t i = 0; i < slow.size(); ++i) {
        EXPECT_NE(slow[i].trace_id, 0u);
        ASSERT_EQ(slow[i].spans.size(), 1u);
        EXPECT_EQ(slow[i].spans[0].stage, Stage::kParse);
        if (i > 0) EXPECT_GT(slow[i].seq, slow[i - 1].seq);
      }
      ++snapshots;
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const auto final_ring = tracer.slow_traces();
  EXPECT_EQ(final_ring.size(), 8u);
  EXPECT_EQ(tracer.request_histogram().snapshot().count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(Trace, ServicePredictObeysSpanAccounting) {
  // The ISSUE invariant: for a single-campaign request, the sum of
  // NON-NESTED span durations is <= the total request time. Nested
  // stages (fit.levmar, fit.realism) aggregate pool CPU and may exceed
  // wall time — that is by design, not a bug.
  estima::parallel::ThreadPool pool(2);
  estima::service::ServiceConfig scfg;
  scfg.prediction.target_cores = estima::core::cores_up_to(16);
  estima::service::PredictionService service(scfg, &pool);

  estima::sim::SyntheticSpec spec;
  spec.stm_rate = 1e-4;
  spec.noise = 0.02;
  const auto ms = estima::sim::make_synthetic(
      spec, estima::sim::counts_up_to(10), "obs-span-sum");

  Registry reg;
  Tracer tracer(reg, TracerConfig{0, 8});
  const auto t0 = TraceContext::Clock::now();
  auto trace = tracer.start(0x0b5ull, t0);
  (void)service.predict_one(ms, nullptr, trace.get());
  const auto t1 = TraceContext::Clock::now();
  tracer.finish(*trace, t1);

  const std::uint64_t total_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  std::uint64_t non_nested_ns = 0;
  bool saw_lookup = false, saw_enumerate = false;
  for (const auto& s : trace->spans()) {
    if (!s.nested) non_nested_ns += s.total_ns;
    saw_lookup |= s.stage == Stage::kCacheLookup;
    saw_enumerate |= s.stage == Stage::kFitEnumerate;
  }
  EXPECT_TRUE(saw_lookup);
  EXPECT_TRUE(saw_enumerate);
  EXPECT_LE(non_nested_ns, total_ns);

  // The same campaign again is a cache hit: lookup recorded, no new fit.
  auto trace2 = tracer.start(0x0b6ull, TraceContext::Clock::now());
  (void)service.predict_one(ms, nullptr, trace2.get());
  tracer.finish(*trace2, TraceContext::Clock::now());
  bool hit_enumerated = false;
  for (const auto& s : trace2->spans()) {
    hit_enumerated |= s.stage == Stage::kFitEnumerate;
  }
  EXPECT_FALSE(hit_enumerated);
  EXPECT_EQ(tracer.stage_histogram(Stage::kCacheLookup).snapshot().count, 2u);

  // Both requests landed in the everything-is-slow ring.
  EXPECT_EQ(tracer.slow_traces().size(), 2u);
}

}  // namespace
}  // namespace estima::obs
