// Cooperative request deadlines.
//
// A Deadline is created where a latency budget is known (the HTTP edge's
// per-request 408 budget, or an X-Estima-Deadline-Ms header) and threaded
// by pointer down through PredictionService into the enumeration fit loop,
// which polls expired() between fits. Expiry is observational — nothing is
// interrupted — so workers stop at the next fit boundary, typically well
// under a millisecond of extra work.
//
// The object is lock-free and safe to share across threads: the edge's
// event loop may cancel() it (client timed out or hung up) while a handler
// thread polls expired() and the router tighten()s it from a header.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace estima::core {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: never expires unless cancel()ed or tighten()ed.
  Deadline() = default;

  /// Expires at the given absolute time.
  explicit Deadline(Clock::time_point at) : tp_ns_(ns_of(at)) {}

  /// Expires `budget` from now.
  static Deadline after(std::chrono::milliseconds budget) {
    return Deadline(Clock::now() + budget);
  }

  // Shared across threads by pointer; copying would silently fork the
  // cancellation channel.
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  /// Moves the expiry earlier, to `budget` after `from`; never extends
  /// it. A budget reaching past the clock's range leaves the expiry
  /// unchanged.
  void tighten(Clock::time_point from, std::chrono::milliseconds budget) {
    const std::int64_t start = ns_of(from);
    const std::int64_t ms = budget.count();
    if (ms > (kUnlimited - start) / 1'000'000) return;
    const std::int64_t cand = start + ms * 1'000'000;
    std::int64_t cur = tp_ns_.load(std::memory_order_relaxed);
    while (cand < cur && !tp_ns_.compare_exchange_weak(
                             cur, cand, std::memory_order_relaxed)) {
    }
  }

  /// Expires the deadline immediately (e.g. the client hung up).
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// True once the budget has run out or cancel() was called.
  bool expired() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const std::int64_t t = tp_ns_.load(std::memory_order_relaxed);
    return t != kUnlimited && ns_of(Clock::now()) >= t;
  }

  /// True when a finite expiry has been set.
  bool limited() const {
    return tp_ns_.load(std::memory_order_relaxed) != kUnlimited;
  }

 private:
  static constexpr std::int64_t kUnlimited =
      std::numeric_limits<std::int64_t>::max();

  static std::int64_t ns_of(Clock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp.time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> tp_ns_{kUnlimited};
};

/// Thrown (from serial code only — never across a parallel_for job
/// boundary) when a computation observes its deadline expired. The HTTP
/// layer maps it to 408.
struct DeadlineExceeded : std::runtime_error {
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace estima::core
