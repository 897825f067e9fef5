// A word-based software transactional memory in the TL2/SwissTM family,
// with the detailed statistics interface the paper relies on: SwissTM is
// configured to "report the duration of committed and aborted transactions"
// (Section 4.1), and aborted-transaction cycles are ESTIMA's canonical
// software stall category.
//
// Algorithm (lazy versioning, commit-time locking):
//   * a global version clock and a striped table of versioned write-locks;
//   * reads validate against the transaction's begin snapshot (rv);
//   * writes are buffered in a write set;
//   * commit locks the write set, bumps the clock, re-validates the read
//     set, publishes the writes, releases the locks at the new version.
// Conflicts abort the transaction; `atomically` retries with backoff and
// charges the wasted cycles to TxStats::abort_cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "syncstats/cycles.hpp"

namespace estima::stm {

/// Per-thread transaction statistics (the SwissTM "detailed statistics").
struct alignas(64) TxStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t commit_cycles = 0;  ///< cycles inside committed transactions
  std::uint64_t abort_cycles = 0;   ///< cycles wasted in aborted attempts

  void reset() { *this = TxStats{}; }
};

namespace detail {

/// The unsigned integer a T's bytes travel through. Transactions read
/// shared words and commits publish them with relaxed atomics on it: a
/// read may race a commit (the lock samples around it reject what it saw),
/// and a plain access there would be a data race. may_alias: the T object
/// itself is accessed through this type.
template <typename T>
struct WordFor {
  static_assert(std::is_trivially_copyable_v<T>,
                "word-based STM: trivially copyable types");
  static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                    sizeof(T) == 8,
                "word-based STM: 1-, 2-, 4- or 8-byte types");
  static_assert(alignof(T) == sizeof(T),
                "word-based STM: naturally aligned types only");
  using type [[gnu::may_alias]] = std::conditional_t<
      sizeof(T) == 1, std::uint8_t,
      std::conditional_t<
          sizeof(T) == 2, std::uint16_t,
          std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>>;
};

}  // namespace detail

/// Thrown (internally) when a conflict forces a retry. User code inside
/// `atomically` must let it propagate.
struct TxAbort {};

/// The global STM runtime: version clock + versioned-lock table.
class Stm {
 public:
  static constexpr std::size_t kLockTableBits = 16;
  static constexpr std::size_t kLockTableSize = 1ull << kLockTableBits;

  Stm() : locks_(kLockTableSize) {}
  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;

  /// Versioned lock word: bit 0 = locked, bits 1.. = version.
  std::atomic<std::uint64_t>& lock_for(const void* addr) {
    // Mix the address bits; drop the low 3 (word alignment).
    auto p = reinterpret_cast<std::uintptr_t>(addr) >> 3;
    p ^= p >> kLockTableBits;
    return locks_[p & (kLockTableSize - 1)].word;
  }

  std::uint64_t clock() const {
    return clock_.load(std::memory_order_acquire);
  }
  std::uint64_t advance_clock() {
    return clock_.fetch_add(2, std::memory_order_acq_rel) + 2;
  }

 private:
  struct alignas(64) PaddedLock {
    std::atomic<std::uint64_t> word{0};
  };
  std::atomic<std::uint64_t> clock_{0};
  std::vector<PaddedLock> locks_;
};

/// One transaction attempt. Word-granularity reads/writes of naturally
/// aligned, trivially copyable 1-, 2-, 4- or 8-byte types.
class Transaction {
 public:
  Transaction(Stm& stm, TxStats& stats)
      : stm_(stm), stats_(stats), rv_(stm.clock()) {}

  template <typename T>
  T read(const T* addr) {
    using Word = typename detail::WordFor<T>::type;
    // Read-own-writes.
    const void* key = addr;
    for (const auto& w : write_set_) {
      if (w.addr == key) {
        T out;
        std::memcpy(&out, &w.value, sizeof(T));
        return out;
      }
    }
    auto& lock = stm_.lock_for(addr);
    const std::uint64_t v1 = lock.load(std::memory_order_acquire);
    if ((v1 & 1ull) || v1 > rv_) throw TxAbort{};
    // Relaxed atomic load between two lock samples.
    const Word bits =
        __atomic_load_n(reinterpret_cast<const Word*>(addr), __ATOMIC_RELAXED);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t v2 = lock.load(std::memory_order_acquire);
    if (v1 != v2) throw TxAbort{};
    read_set_.push_back(&lock);
    return value;
  }

  template <typename T>
  void write(T* addr, T value) {
    static_assert(sizeof(typename detail::WordFor<T>::type) == sizeof(T),
                  "word-based STM: a T is published as one word");
    WriteEntry e;
    e.addr = addr;
    std::memcpy(&e.value, &value, sizeof(T));
    e.size = sizeof(T);
    e.lock = &stm_.lock_for(addr);
    // Update in place when already buffered.
    for (auto& w : write_set_) {
      if (w.addr == e.addr) {
        w = e;
        return;
      }
    }
    write_set_.push_back(e);
  }

  /// Attempts to commit; throws TxAbort on conflict. On success the writes
  /// are visible and the transaction must not be reused.
  void commit();

  std::size_t read_set_size() const { return read_set_.size(); }
  std::size_t write_set_size() const { return write_set_.size(); }

 private:
  struct WriteEntry {
    void* addr = nullptr;
    std::uint64_t value = 0;
    std::size_t size = 0;
    std::atomic<std::uint64_t>* lock = nullptr;
  };

  Stm& stm_;
  TxStats& stats_;
  std::uint64_t rv_;
  std::vector<std::atomic<std::uint64_t>*> read_set_;
  std::vector<WriteEntry> write_set_;
};

/// Runs `fn(Transaction&)` atomically, retrying on conflicts with bounded
/// exponential backoff. Cycles of failed attempts accumulate in
/// stats.abort_cycles; committed-attempt cycles in stats.commit_cycles.
template <typename F>
void atomically(Stm& stm, TxStats& stats, F&& fn) {
  int attempt = 0;
  for (;;) {
    const std::uint64_t start = sync::rdcycles();
    try {
      Transaction tx(stm, stats);
      fn(tx);
      tx.commit();
      stats.commits += 1;
      stats.commit_cycles += sync::rdcycles() - start;
      return;
    } catch (const TxAbort&) {
      stats.aborts += 1;
      stats.abort_cycles += sync::rdcycles() - start;
      // Bounded exponential backoff: 2^attempt dependent-add spins.
      const int spins = 1 << (attempt < 10 ? attempt : 10);
      int sink = 0;
      for (int i = 0; i < spins; ++i) sink += i;
      std::atomic_signal_fence(std::memory_order_seq_cst);
      volatile int keep = sink;
      (void)keep;
      ++attempt;
    }
  }
}

}  // namespace estima::stm
