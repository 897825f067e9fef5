#include "obs/trace.hpp"

#include <cctype>
#include <chrono>

namespace estima::obs {

namespace {

std::uint64_t dur_ns(TraceContext::Clock::time_point a,
                     TraceContext::Clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

constexpr const char* kStageNames[kStageCount] = {
    "edge.read",  "queue.wait", "parse",       "cache.lookup", "fit.enumerate",
    "fit.levmar", "fit.realism", "serialize",  "edge.write", "edge.encode",
};

/// splitmix64: cheap, well-mixed id stream from a seeded counter.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const char* stage_name(Stage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}

std::string format_trace_id(std::uint64_t id) {
  // Every traced response echoes its id, so the 16 nibbles are written
  // from a table, most significant first: the bytes of
  // snprintf("%016llx") without its format parsing.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, id >>= 4) out[i] = kHex[id & 0xf];
  return out;
}

std::optional<std::uint64_t> parse_trace_id(const std::string& s) {
  std::size_t i = 0;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) i = 2;
  if (i >= s.size() || s.size() - i > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    std::uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    v = (v << 4) | d;
  }
  return v;
}

void TraceContext::add(Stage s, Clock::time_point start,
                       Clock::time_point end) {
  add_ns(s, dur_ns(t0_, start), dur_ns(start, end));
}

void TraceContext::add_ns(Stage s, std::uint64_t start_off_ns,
                          std::uint64_t ns) {
  Cell& c = cells_[static_cast<std::size_t>(s)];
  c.ns.fetch_add(ns, std::memory_order_relaxed);
  c.count.fetch_add(1, std::memory_order_relaxed);
  std::int64_t expected = -1;
  c.first_off.compare_exchange_strong(expected,
                                      static_cast<std::int64_t>(start_off_ns),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed);
  if (tracer_) tracer_->stage_histogram(s).record(ns);
}

std::vector<TraceContext::SpanSnapshot> TraceContext::spans() const {
  std::vector<SpanSnapshot> out;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Cell& c = cells_[i];
    const std::uint64_t n = c.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    const std::int64_t off = c.first_off.load(std::memory_order_relaxed);
    out.push_back({static_cast<Stage>(i),
                   off < 0 ? 0 : static_cast<std::uint64_t>(off),
                   c.ns.load(std::memory_order_relaxed), n,
                   stage_nested(static_cast<Stage>(i))});
  }
  return out;
}

Tracer::Tracer(Registry& registry, TracerConfig cfg) : cfg_(cfg) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stages_[i] = registry.histogram(
        "estima_stage_duration_seconds",
        std::string("stage=\"") + kStageNames[i] + "\"",
        "Per-request stage span durations (stable span-name schema)");
  }
  request_ = registry.histogram(
      "estima_request_duration_seconds", "",
      "End-to-end request durations at the serving edge");
  // Seed the id stream from the clock + this tracer's address: ids need
  // to be distinct across restarts, not cryptographic.
  id_state_.store(
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
          reinterpret_cast<std::uintptr_t>(this),
      std::memory_order_relaxed);
}

std::uint64_t Tracer::generate_id() {
  // fetch_add keeps concurrent generators on distinct states; splitmix
  // then whitens the counter into an id.
  std::uint64_t state =
      id_state_.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
  std::uint64_t id = splitmix64(state);
  return id == 0 ? 1 : id;  // 0 means "generate" on the wire
}

std::shared_ptr<TraceContext> Tracer::start(
    std::uint64_t id, TraceContext::Clock::time_point t0) {
  return std::make_shared<TraceContext>(this, id == 0 ? generate_id() : id,
                                        t0);
}

void Tracer::finish(TraceContext& trace, TraceContext::Clock::time_point end) {
  const std::uint64_t total = dur_ns(trace.t0_, end);
  request_->record(total);
  if (cfg_.slow_threshold_ms < 0 || cfg_.ring_capacity == 0) return;
  if (total < static_cast<std::uint64_t>(cfg_.slow_threshold_ms) * 1000000ull) {
    return;
  }
  SlowTrace slow;
  slow.trace_id = trace.id_;
  slow.total_ns = total;
  slow.spans = trace.spans();
  std::lock_guard<std::mutex> lock(ring_mu_);
  // The sequence number is taken under the ring lock so that ring order
  // and seq order agree: taken before it, two finishers could insert in
  // the opposite order of their seqs.
  slow.seq = seq_++;
  if (ring_.size() < cfg_.ring_capacity) {
    ring_.push_back(std::move(slow));
  } else {
    ring_[ring_next_] = std::move(slow);
    ring_next_ = (ring_next_ + 1) % cfg_.ring_capacity;
  }
}

std::vector<SlowTrace> Tracer::slow_traces() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  std::vector<SlowTrace> out;
  out.reserve(ring_.size());
  // Oldest first: the ring wraps at ring_next_ once full.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

}  // namespace estima::obs
