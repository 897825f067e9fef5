#include "stm/stm.hpp"

#include <algorithm>

namespace estima::stm {
namespace {

/// Publishes the first sizeof(Int) bytes of a buffered write with a
/// relaxed atomic store (see detail::WordFor).
template <typename Int>
void publish(void* addr, const std::uint64_t& value) {
  using Word = typename detail::WordFor<Int>::type;
  Word word;
  std::memcpy(&word, &value, sizeof word);
  __atomic_store_n(static_cast<Word*>(addr), word, __ATOMIC_RELAXED);
}

}  // namespace

void Transaction::commit() {
  if (write_set_.empty()) return;  // read-only: snapshot already validated

  // Sort-and-deduplicate the locks to acquire (global order avoids
  // deadlock between concurrent committers).
  std::vector<std::atomic<std::uint64_t>*> to_lock;
  to_lock.reserve(write_set_.size());
  for (const auto& w : write_set_) to_lock.push_back(w.lock);
  std::sort(to_lock.begin(), to_lock.end());
  to_lock.erase(std::unique(to_lock.begin(), to_lock.end()), to_lock.end());

  // Acquire write locks (bounded try; abort on any contention/conflict).
  std::size_t acquired = 0;
  bool failed = false;
  std::vector<std::uint64_t> saved(to_lock.size(), 0);
  for (; acquired < to_lock.size(); ++acquired) {
    auto* lock = to_lock[acquired];
    std::uint64_t v = lock->load(std::memory_order_acquire);
    if ((v & 1ull) || v > rv_ ||
        !lock->compare_exchange_strong(v, v | 1ull,
                                       std::memory_order_acq_rel)) {
      failed = true;
      break;
    }
    saved[acquired] = v;
  }
  if (failed) {
    for (std::size_t i = 0; i < acquired; ++i) {
      to_lock[i]->store(saved[i], std::memory_order_release);
    }
    throw TxAbort{};
  }

  const std::uint64_t wv = stm_.advance_clock();

  // Re-validate the read set against rv; our own locked entries pass.
  bool valid = true;
  if (wv != rv_ + 2) {  // another committer interleaved: must validate
    for (auto* lock : read_set_) {
      const std::uint64_t v = lock->load(std::memory_order_acquire);
      const bool locked_by_me =
          (v & 1ull) &&
          std::binary_search(to_lock.begin(), to_lock.end(), lock);
      if (locked_by_me) continue;
      if ((v & 1ull) || v > rv_) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    for (std::size_t i = 0; i < to_lock.size(); ++i) {
      to_lock[i]->store(saved[i], std::memory_order_release);
    }
    throw TxAbort{};
  }

  // Publish the writes, then release every lock at the new version.
  for (const auto& w : write_set_) {
    switch (w.size) {
      case 1: publish<std::uint8_t>(w.addr, w.value); break;
      case 2: publish<std::uint16_t>(w.addr, w.value); break;
      case 4: publish<std::uint32_t>(w.addr, w.value); break;
      default: publish<std::uint64_t>(w.addr, w.value); break;
    }
  }
  std::atomic_thread_fence(std::memory_order_release);
  for (auto* lock : to_lock) {
    lock->store(wv, std::memory_order_release);
  }
}

}  // namespace estima::stm
