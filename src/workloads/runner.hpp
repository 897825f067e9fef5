// Thread-pool-free parallel runner shared by the native workloads: spawns
// one thread per requested worker, hands each a per-thread context (STM
// stats + sync stall counters), joins, and aggregates the software stalls
// in the categories ESTIMA's plugins expect.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "stm/stm.hpp"
#include "syncstats/spinlock.hpp"
#include "workloads/workload.hpp"

namespace estima::wl {

struct ThreadContext {
  int tid = 0;
  int num_threads = 1;
  stm::TxStats stm_stats;
  sync::ThreadStallCounters sync_stats;
};

/// Runs body(ctx) on `threads` threads and fills result.software_stalls
/// with the summed stm_abort_cycles / lock_spin_cycles /
/// barrier_wait_cycles. Returns the contexts for workload-specific checks.
inline std::vector<ThreadContext> run_parallel(
    int threads, const std::function<void(ThreadContext&)>& body,
    WorkloadResult& result) {
  std::vector<ThreadContext> contexts(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    contexts[t].tid = t;
    contexts[t].num_threads = threads;
  }
  // Start gate: no worker begins until every worker exists. Without it
  // the first threads can drain a short workload while later ones are
  // still being spawned, so an n-thread run would not run n threads at
  // once and contention stalls (STM aborts, lock spins) would go unseen.
  std::atomic<int> arrived{0};
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < threads) {
        std::this_thread::yield();
      }
      body(contexts[t]);
    });
  }
  for (auto& th : pool) th.join();

  double abort_cycles = 0.0, spin_cycles = 0.0, barrier_cycles = 0.0;
  for (const auto& ctx : contexts) {
    abort_cycles += static_cast<double>(ctx.stm_stats.abort_cycles);
    spin_cycles += static_cast<double>(ctx.sync_stats.lock_spin_cycles);
    barrier_cycles += static_cast<double>(ctx.sync_stats.barrier_wait_cycles);
  }
  if (abort_cycles > 0.0) {
    result.software_stalls["stm_abort_cycles"] += abort_cycles;
  }
  if (spin_cycles > 0.0) {
    result.software_stalls["lock_spin_cycles"] += spin_cycles;
  }
  if (barrier_cycles > 0.0) {
    result.software_stalls["barrier_wait_cycles"] += barrier_cycles;
  }
  return contexts;
}

}  // namespace estima::wl
