#include "stm/stm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace estima::stm {
namespace {

TEST(Stm, SingleThreadReadWrite) {
  Stm stm;
  TxStats stats;
  std::uint64_t cell = 5;
  atomically(stm, stats, [&](Transaction& tx) {
    EXPECT_EQ(tx.read(&cell), 5u);
    tx.write(&cell, std::uint64_t{7});
    EXPECT_EQ(tx.read(&cell), 7u);  // read-own-write
  });
  EXPECT_EQ(cell, 7u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.aborts, 0u);
}

TEST(Stm, WritesInvisibleUntilCommit) {
  Stm stm;
  TxStats stats;
  std::uint64_t cell = 1;
  Transaction tx(stm, stats);
  tx.write(&cell, std::uint64_t{2});
  EXPECT_EQ(cell, 1u);  // not yet committed
  tx.commit();
  EXPECT_EQ(cell, 2u);
}

TEST(Stm, ReadOnlyTransactionCommits) {
  Stm stm;
  TxStats stats;
  std::uint64_t cell = 11;
  atomically(stm, stats, [&](Transaction& tx) {
    EXPECT_EQ(tx.read(&cell), 11u);
  });
  EXPECT_EQ(stats.commits, 1u);
}

TEST(Stm, ConflictingCommitAborts) {
  Stm stm;
  TxStats stats_a, stats_b;
  std::uint64_t cell = 0;

  // Transaction A reads, then B commits a write, then A tries to commit a
  // write based on its stale read: A must abort.
  Transaction a(stm, stats_a);
  const std::uint64_t seen = a.read(&cell);
  ASSERT_EQ(seen, 0u);
  a.write(&cell, seen + 10);

  atomically(stm, stats_b, [&](Transaction& tx) {
    tx.write(&cell, tx.read(&cell) + 1);
  });
  EXPECT_EQ(cell, 1u);

  EXPECT_THROW(a.commit(), TxAbort);
  EXPECT_EQ(cell, 1u);  // A's write never landed
}

TEST(Stm, CounterIncrementsAreAtomic) {
  Stm stm;
  std::uint64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> pool;
  std::vector<TxStats> stats(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        atomically(stm, stats[t], [&](Transaction& tx) {
          tx.write(&counter, tx.read(&counter) + 1);
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIncrements);
  std::uint64_t commits = 0;
  for (const auto& s : stats) commits += s.commits;
  EXPECT_EQ(commits, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Stm, BankTransferConservesTotal) {
  Stm stm;
  constexpr int kAccounts = 64;
  constexpr std::int64_t kInitial = 1000;
  std::vector<std::uint64_t> accounts(kAccounts, kInitial);
  constexpr int kThreads = 6;
  std::vector<std::thread> pool;
  std::vector<TxStats> stats(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t x = 12345 + t;
      for (int i = 0; i < 3000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t from = (x >> 33) % kAccounts;
        const std::size_t to = (x >> 13) % kAccounts;
        if (from == to) continue;
        atomically(stm, stats[t], [&](Transaction& tx) {
          const std::uint64_t f = tx.read(&accounts[from]);
          if (f == 0) return;
          tx.write(&accounts[from], f - 1);
          tx.write(&accounts[to], tx.read(&accounts[to]) + 1);
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  std::uint64_t total = 0;
  for (auto a : accounts) total += a;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kAccounts) * kInitial);
}

TEST(Stm, AbortCyclesAccumulateUnderContention) {
  // Workers 0 and 1 meet at a rendezvous once, in their first attempt
  // that gets past reading `hot` and before writing it, so both hold a
  // snapshot of `hot` older than either commit. Whichever commits second
  // finds `hot`'s lock version above its read version and must abort: the
  // conflict is forced, not left to the scheduler, so it happens on one
  // core too.
  Stm stm;
  std::uint64_t hot = 0;
  constexpr int kThreads = 8;
  std::atomic<int> at_rendezvous{0};
  std::vector<std::thread> pool;
  std::vector<TxStats> stats(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      bool met = t >= 2;
      for (int i = 0; i < 3000; ++i) {
        atomically(stm, stats[t], [&](Transaction& tx) {
          const std::uint64_t v = tx.read(&hot);
          if (!met) {
            met = true;
            at_rendezvous.fetch_add(1);
            while (at_rendezvous.load() < 2) std::this_thread::yield();
          }
          tx.write(&hot, v + 1);
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  std::uint64_t aborts = 0, abort_cycles = 0;
  for (const auto& s : stats) {
    aborts += s.aborts;
    abort_cycles += s.abort_cycles;
  }
  EXPECT_EQ(hot, 8u * 3000u);
  EXPECT_GT(aborts, 0u);         // contention must cause conflicts
  EXPECT_GT(abort_cycles, 0u);   // and their cycles must be accounted
}

TEST(Stm, DifferentTypesSupported) {
  Stm stm;
  TxStats stats;
  double d = 1.5;
  std::int32_t i = -3;
  atomically(stm, stats, [&](Transaction& tx) {
    tx.write(&d, tx.read(&d) * 2.0);
    tx.write(&i, tx.read(&i) - 1);
  });
  EXPECT_DOUBLE_EQ(d, 3.0);
  EXPECT_EQ(i, -4);
}

TEST(Stm, StatsResetClearsCounters) {
  TxStats stats;
  stats.commits = 5;
  stats.abort_cycles = 100;
  stats.reset();
  EXPECT_EQ(stats.commits, 0u);
  EXPECT_EQ(stats.abort_cycles, 0u);
}

}  // namespace
}  // namespace estima::stm
