// Structured JSONL event log: one compact JSON object per line, written
// by a dedicated thread so the request path never touches the disk.
//
// emit() is wait-free for producers: a bounded Vyukov-style MPMC ring
// (used multi-producer / single-consumer here) claims a cell with one
// CAS, moves the line in, and publishes it with a release store. When
// the ring is full the line is DROPPED and counted — the hot path never
// blocks on a slow disk, mirroring the tracer's slow-ring philosophy:
// observability may lose data under pressure, it may not add latency.
//
// The writer thread drains the ring every flush_interval_ms (and once
// more at stop()), appends lines to `path`, fflushes per batch, and
// rotates the file to `path + ".1"` when it crosses rotate_bytes — a
// one-deep rotation that bounds disk use at ~2x rotate_bytes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace estima::obs {

struct EventLogConfig {
  std::string path;
  /// Producer ring capacity in lines; rounded up to a power of two.
  std::size_t ring_capacity = 1024;
  /// Rotate to path + ".1" once the current file would cross this many
  /// bytes. 0 = never rotate.
  std::uint64_t rotate_bytes = 64ull << 20;
  /// Writer-thread drain period. Lines are also drained at stop().
  int flush_interval_ms = 50;
};

class EventLog {
 public:
  explicit EventLog(EventLogConfig cfg);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Enqueue one line (newline appended by the writer). Wait-free;
  /// returns false — and counts a drop — when the ring is full.
  bool emit(std::string line);

  /// Drain the ring, flush, close the file, join the writer. Idempotent;
  /// also run by the destructor. Lines emitted after stop() are dropped.
  void stop();

  std::uint64_t lines_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t lines_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t write_failures() const {
    return write_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }
  const EventLogConfig& config() const { return cfg_; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    std::string line;
  };

  void writer_loop();
  bool pop(std::string& out);
  void write_line(const std::string& line);
  void rotate();

  EventLogConfig cfg_;
  std::size_t mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
  std::atomic<std::size_t> enqueue_pos_{0};
  std::size_t dequeue_pos_ = 0;  ///< writer thread only

  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> write_failures_{0};
  std::atomic<std::uint64_t> rotations_{0};

  std::FILE* out_ = nullptr;       ///< writer thread only
  std::uint64_t file_bytes_ = 0;   ///< writer thread only

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<bool> stopped_{false};
  std::thread writer_;
};

/// The per-request event line, shared by the router (served requests)
/// and the HTTP edge (shed requests) so every line parses identically:
///   {"trace_id":"...","target":"...","status":N,"campaign_hash":"...",
///    "disposition":"...","winner_kernel":"...","latency_ms":N.NNN}
/// trace_id / campaign_hash / winner_kernel are "" when not applicable;
/// disposition is one of hit|miss|cancelled|shed|error|none.
std::string format_request_event(const std::string& trace_id,
                                 const std::string& target, int status,
                                 const std::string& campaign_hash,
                                 const std::string& disposition,
                                 const std::string& winner_kernel,
                                 double latency_ms);

}  // namespace estima::obs
