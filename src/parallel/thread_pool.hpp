// A small fixed-size thread pool and a deterministic parallel_for.
//
// ESTIMA's fitting pipeline fans out thousands of independent
// (kernel, prefix) fits per prediction. predict() runs them as one
// parallel_for over every (series, kernel) job of the prediction — the
// stall categories and the scaling factor alike — with per-job result
// slots, so parallelism never changes results: every index writes its own
// slot and the surrounding reduction stays serial, making multi-threaded
// output bit-identical to single-threaded.
//
// parallel_for is nesting-safe by construction: the calling thread claims
// indices from the shared counter alongside the workers, so an outer
// parallel_for whose body runs an inner one can never deadlock even when
// every pool worker is busy — the caller simply drains the remaining
// indices itself. predict() itself does not nest; the serving layer's
// predict_many does, fanning a batch's missed campaigns out on the same
// pool each predict() fans its fit jobs onto.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace estima::parallel {

/// Fixed-size FIFO thread pool. Tasks must not throw.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 makes a pool that executes nothing;
  /// parallel_for then degrades to a serial loop on the caller).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Pool size matching the host: hardware_concurrency with a floor of 1.
  /// The serving layer and the benches size their pools with this.
  static std::size_t hardware_threads();

  /// Enqueues a task for execution on some worker.
  void submit(std::function<void()> task);

  /// Enqueues a task unless submission is refused (fault site
  /// "pool.submit" — a stand-in for thread/queue resource exhaustion).
  /// Returns false on refusal, in which case the task was NOT enqueued
  /// and the caller must absorb the work itself. parallel_for treats
  /// every helper as optional, so a refusal degrades throughput, never
  /// results.
  bool try_submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(0..n-1), fanning out across `pool` when it is non-null and has
/// workers; otherwise a plain serial loop. The caller participates in the
/// index loop, so the call makes progress even when all workers are busy
/// (nested parallel_for is safe). Completion order is unspecified — callers
/// must make fn write only to per-index state. fn must not throw.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace estima::parallel
