#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/predictor.hpp"
#include "simmachine/synthetic.hpp"

namespace estima {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  std::atomic<int> count{0};
  {
    parallel::ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel::parallel_for(&pool, hits.size(),
                         [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbacksCoverEveryIndex) {
  // Null pool and zero-thread pool both degrade to a serial loop.
  std::vector<int> hits(64, 0);
  parallel::parallel_for(nullptr, hits.size(),
                         [&](std::size_t i) { hits[i]++; });
  parallel::ThreadPool empty(0);
  parallel::parallel_for(&empty, hits.size(),
                         [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // Outer loop wider than the pool, each body running an inner
  // parallel_for on the same pool: the caller-participates design must
  // complete even though every worker is busy with outer iterations.
  parallel::ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel::parallel_for(&pool, 8, [&](std::size_t) {
    parallel::parallel_for(&pool, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ZeroAndOneIndexEdgeCases) {
  parallel::ThreadPool pool(2);
  int hits = 0;
  parallel::parallel_for(&pool, 0, [&](std::size_t) { hits++; });
  EXPECT_EQ(hits, 0);
  parallel::parallel_for(&pool, 1, [&](std::size_t) { hits++; });
  EXPECT_EQ(hits, 1);
}

// The acceptance bar for the parallel pipeline: predict() output must be
// bit-identical with and without pool threads — parallelism only fans out
// independent (series, kernel) fit jobs into per-index slots, all scoring
// and selection stays serial.
TEST(ParallelPredict, BitIdenticalAcrossThreadCounts) {
  sim::SyntheticSpec spec;
  spec.stm_rate = 1e-4;
  spec.noise = 0.02;
  const auto ms = sim::make_synthetic(spec, sim::counts_up_to(12));

  core::PredictionConfig cfg;
  cfg.target_cores = core::cores_up_to(48);
  const auto serial = core::predict(ms, cfg);

  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    parallel::ThreadPool pool(threads);
    const auto pooled = core::predict(ms, cfg, &pool);

    ASSERT_EQ(serial.time_s.size(), pooled.time_s.size());
    EXPECT_EQ(serial.time_s, pooled.time_s) << threads << " threads";
    EXPECT_EQ(serial.stalls_per_core, pooled.stalls_per_core);
    EXPECT_EQ(serial.factor_fn.params, pooled.factor_fn.params);
    EXPECT_EQ(serial.factor_correlation, pooled.factor_correlation);
    ASSERT_EQ(serial.categories.size(), pooled.categories.size());
    for (std::size_t i = 0; i < serial.categories.size(); ++i) {
      EXPECT_EQ(serial.categories[i].values, pooled.categories[i].values);
      EXPECT_EQ(serial.categories[i].extrapolation.best.params,
                pooled.categories[i].extrapolation.best.params);
      EXPECT_EQ(serial.categories[i].extrapolation.checkpoint_rmse,
                pooled.categories[i].extrapolation.checkpoint_rmse);
      EXPECT_EQ(serial.categories[i].extrapolation.chosen_prefix,
                pooled.categories[i].extrapolation.chosen_prefix);
    }
  }
}

}  // namespace
}  // namespace estima
