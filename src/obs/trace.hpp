// Per-request trace spans over a stable stage schema.
//
// A TraceContext is created at the serving edge when a request is
// dispatched, with its origin at the read that delivered the request's
// first byte (carrying a 64-bit trace id taken from X-Estima-Trace-Id
// or generated) and threaded by pointer through RequestContext ->
// routes -> PredictionService -> the fit loop — the same seam the
// cooperative Deadline already rides. Every stage records into a
// fixed-size per-context cell array with relaxed atomics; there is no
// allocation and no locking on the hot path.
//
// The stage names are a STABLE SCHEMA (see ROADMAP invariants):
//   edge.read, queue.wait, parse, cache.lookup, fit.enumerate,
//   fit.levmar, fit.realism, serialize, edge.write, edge.encode
// Renaming one is a breaking change for anything scraping /v1/metrics
// or /v1/trace; new stages are appended, so existing indices keep their
// values. `serialize` is the router rendering the response body, or
// copying the answer's kept record when the cache holds one;
// `edge.encode` is the HTTP layer assembling status line, headers and
// body into wire bytes.
//
// Span accounting: `fit.levmar` and `fit.realism` are NESTED stages —
// they aggregate CPU time across the fit worker threads inside
// fit.enumerate, so their sums may exceed wall time. For a
// single-campaign request, the sum of the non-nested span durations is
// <= the total request time; batch requests may run cache.lookup /
// fit.enumerate concurrently across campaigns, in which case those
// cells aggregate overlapping work (count > 1).
//
// The Tracer owns the per-stage histograms (registered in an
// obs::Registry), generates trace ids, and keeps a bounded ring of
// slow requests (total over a threshold) with their full span
// breakdown for GET /v1/trace and the SIGUSR1 dump.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace estima::obs {

enum class Stage : std::uint8_t {
  kEdgeRead = 0,
  kQueueWait,
  kParse,
  kCacheLookup,
  kFitEnumerate,
  kFitLevmar,
  kFitRealism,
  kSerialize,
  kEdgeWrite,
  kEdgeEncode,
};
inline constexpr std::size_t kStageCount = 10;

const char* stage_name(Stage s);

/// Nested stages aggregate worker-thread CPU time inside another span;
/// they are excluded from the span-sum <= total invariant.
constexpr bool stage_nested(Stage s) {
  return s == Stage::kFitLevmar || s == Stage::kFitRealism;
}

/// Lowercase 16-digit hex, the wire form used by X-Estima-Trace-Id.
std::string format_trace_id(std::uint64_t id);
/// Accepts 1..16 hex digits (with optional 0x); nullopt otherwise.
std::optional<std::uint64_t> parse_trace_id(const std::string& s);

class Tracer;

class TraceContext {
 public:
  using Clock = std::chrono::steady_clock;

  TraceContext(Tracer* tracer, std::uint64_t id, Clock::time_point t0)
      : tracer_(tracer), id_(id), t0_(t0) {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  std::uint64_t trace_id() const { return id_; }
  Clock::time_point origin() const { return t0_; }
  /// The tracer that created this context (finish() goes through it, so
  /// a request keeps its tracer even if the server's is swapped).
  Tracer* tracer() const { return tracer_; }

  /// Record one span occurrence: folds into the per-stage cell and the
  /// tracer's stage histogram. Relaxed atomics only.
  void add(Stage s, Clock::time_point start, Clock::time_point end);
  /// Same, with a precomputed duration offset from origin (used where
  /// the caller accumulated time itself, e.g. parse nanoseconds).
  void add_ns(Stage s, std::uint64_t start_off_ns, std::uint64_t dur_ns);

  struct SpanSnapshot {
    Stage stage;
    std::uint64_t start_off_ns;  // first occurrence, offset from origin
    std::uint64_t total_ns;      // summed across occurrences
    std::uint64_t count;
    bool nested;
  };
  /// Stages with at least one occurrence, in schema order.
  std::vector<SpanSnapshot> spans() const;

 private:
  friend class Tracer;
  struct Cell {
    std::atomic<std::uint64_t> ns;
    std::atomic<std::uint64_t> count;
    std::atomic<std::int64_t> first_off;  // -1 until first occurrence
    Cell() : ns(0), count(0), first_off(-1) {}
  };
  Cell cells_[kStageCount];
  Tracer* tracer_;
  std::uint64_t id_;
  Clock::time_point t0_;
};

/// RAII span: times construction -> stop()/destruction into a stage.
/// A null trace makes it a no-op (one branch, no clock read).
class SpanTimer {
 public:
  SpanTimer(TraceContext* trace, Stage stage) : trace_(trace), stage_(stage) {
    if (trace_) start_ = TraceContext::Clock::now();
  }
  ~SpanTimer() { stop(); }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void stop() {
    if (trace_) {
      trace_->add(stage_, start_, TraceContext::Clock::now());
      trace_ = nullptr;
    }
  }

 private:
  TraceContext* trace_;
  Stage stage_;
  TraceContext::Clock::time_point start_;
};

struct TracerConfig {
  /// Requests whose total exceeds this land in the slow ring.
  /// 0 retains every request (useful in tests), negative disables.
  std::int64_t slow_threshold_ms = 250;
  std::size_t ring_capacity = 64;
};

/// One finished slow request as retained by the ring.
struct SlowTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;  // monotone completion number, for ordering
  std::uint64_t total_ns = 0;
  std::vector<TraceContext::SpanSnapshot> spans;
};

class Tracer {
 public:
  /// Registers the request-duration histogram and one histogram per
  /// stage (estima_stage_duration_seconds{stage="..."}) in `registry`,
  /// which must outlive the tracer.
  explicit Tracer(Registry& registry, TracerConfig cfg = {});

  std::uint64_t generate_id();

  /// Begin a trace; id 0 means "generate one". t0 anchors all span
  /// offsets (typically the request's first-byte time).
  std::shared_ptr<TraceContext> start(std::uint64_t id,
                                      TraceContext::Clock::time_point t0);

  /// Finish: records the request-duration histogram and retains the
  /// span breakdown in the slow ring when total crosses the threshold.
  void finish(TraceContext& trace, TraceContext::Clock::time_point end);

  Histogram& stage_histogram(Stage s) {
    return *stages_[static_cast<std::size_t>(s)];
  }
  Histogram& request_histogram() { return *request_; }

  /// Slow ring, oldest first.
  std::vector<SlowTrace> slow_traces() const;

  const TracerConfig& config() const { return cfg_; }

 private:
  TracerConfig cfg_;
  Histogram* stages_[kStageCount];
  Histogram* request_;
  std::atomic<std::uint64_t> id_state_;

  mutable std::mutex ring_mu_;
  std::vector<SlowTrace> ring_;  // circular once full
  std::size_t ring_next_ = 0;
  std::uint64_t seq_ = 0;  // guarded by ring_mu_, like the ring itself
};

}  // namespace estima::obs
