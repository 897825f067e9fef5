// Cross-prediction (kernel, prefix) fit memoization for streaming
// campaigns.
//
// A (kernel, prefix) fit depends only on the prefix's data points and the
// FitOptions — never on the checkpoint setting, the realism filter, the
// full series length, or the extrapolation horizon (see extrapolator.hpp).
// Appending a measurement point to a campaign therefore leaves every
// previously fitted prefix bit-identical: only the prefixes that now reach
// into the new point are new work. A FitMemo carries those fit results
// across predict() calls so an append-then-repredict executes only the new
// prefixes' fits.
//
// Identity contract: attaching a FitMemo must leave predictions
// byte-identical to a cold predict(). Three properties deliver that:
//   * keys digest the RAW BIT PATTERNS of the prefix data (no -0.0/NaN
//     canonicalization) plus the kernel id and every FitOptions field, so
//     inputs that are not bit-equal share a digest only by a 64-bit hash
//     collision;
//   * every record also stores its kernel id and prefix length, and a
//     lookup whose kernel or prefix differs from the record's is a miss —
//     so the one remaining risk is a collision between two prefixes of the
//     same kernel and length that differ in their data bits or FitOptions
//     (about n^2 / 2^65 for n distinct fits held by one memo);
//   * records store the fit outcome (FittedFunction or "no fit") together
//     with its FitDiag, bit for bit, so the serial audit emission replays
//     the exact records the executed fit produced.
// Everything downstream of the fit (realism walks, checkpoint scoring,
// prediction panels) depends on the full series and is recomputed on
// every call — only the expensive LM refinement is memoized.
//
// Storage: a streamed campaign keeps its memo for as long as it lives, so
// the memo is packed. Records are variable-length byte strings appended to
// one contiguous arena; a sorted array of (digest, arena offset) pairs is
// the index. A record is
//   u8 kernel | u8 Path | u8 flags (has-fit, solved) | varint prefix |
//   varint starts | [u8 fn kernel | varint params | y_scale | params] |
//   starts x (rmse | varint model_evals | zigzag varint iterations | u8 term)
// with doubles as their raw 8-byte patterns and LEB128 varints for the
// integers, so every value — NaN payloads, -0.0, SIZE_MAX — round-trips
// exactly. Both arrays grow to exactly what an insert batch needs (no
// doubling slack) and clear() frees them.
//
// Thread safety: all methods are safe to call concurrently; one memo may
// serve concurrent predictions. Each enumeration looks up all its
// (kernel, prefix) slots before the fit jobs run and inserts the executed
// ones in one batch after the whole fill completed, never from inside a
// job. Like `pool` and `audit`, the memo rides in the ExecContext,
// outside config_signature — it cannot change produced values, only how
// fast they are produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/fit_engine.hpp"
#include "core/kernels.hpp"

namespace estima::core {

/// The memoized outcome of one executed (kernel, prefix) fit: the fitted
/// function (nullopt when the fit legitimately failed — a failure is as
/// reusable as a success) plus the diagnostic record the audit layer
/// replays.
struct FitMemoEntry {
  std::optional<FittedFunction> fn;
  FitDiag diag;
};

struct FitMemoStats {
  std::uint64_t hits = 0;     ///< fits served from the memo
  std::uint64_t misses = 0;   ///< lookups that had to execute the fit
  std::uint64_t entries = 0;  ///< resident (kernel, prefix) entries
  std::uint64_t bytes = 0;    ///< arena plus index capacity, in bytes
};

class FitMemo {
 public:
  /// What a record is filed under: the digest of one fit job's full input
  /// plus the kernel and prefix length the record stores in its header.
  struct Key {
    std::uint64_t digest = 0;
    std::size_t prefix = 0;
    KernelType kernel = KernelType::kRat22;

    friend bool operator==(const Key& a, const Key& b) {
      return a.digest == b.digest && a.prefix == b.prefix &&
             a.kernel == b.kernel;
    }
    friend bool operator!=(const Key& a, const Key& b) { return !(a == b); }
  };

  /// One executed fit of an insert batch: borrowed views of the caller's
  /// fit and diag, copied into the arena by insert().
  struct Fresh {
    Key key;
    const std::optional<FittedFunction>* fn = nullptr;
    const FitDiag* diag = nullptr;
  };

  FitMemo() = default;
  FitMemo(const FitMemo&) = delete;
  FitMemo& operator=(const FitMemo&) = delete;

  /// Key of one fit job: `digest` covers the kernel id, FitOptions, prefix
  /// length, and the raw bits of xs[0..prefix) / ys[0..prefix).
  static Key key_of(KernelType type, const double* xs, const double* ys,
                    std::size_t prefix, const FitOptions& opts);

  /// Decodes the record for `key` into `*out` and counts a hit; counts a
  /// miss and leaves `*out` untouched when no record has the key's digest
  /// or the record's kernel or prefix differs from the key's.
  bool lookup(const Key& key, FitMemoEntry* out);

  /// Appends a record for every fit of `batch` whose digest is not yet
  /// resident (a resident digest, or a repeat within the batch, appends
  /// nothing: same key means bit-equal input, so the value is identical).
  /// The arena and the index grow once, to exactly what the batch needs. A
  /// batch that would take the arena past 4 GiB is not kept; its fits
  /// simply execute again next time.
  void insert(const std::vector<Fresh>& batch);
  void insert(const Key& key, const FitMemoEntry& entry);

  FitMemoStats stats() const;

  /// Drops every record and frees the arena and the index (a replaced
  /// campaign is a brand-new series whose old fits must never replay)
  /// while keeping the cumulative hit/miss counters — the accounting
  /// spans the memo's lifetime, not one series.
  void clear();

 private:
  /// Index slot: the 64-bit digest split into two words so the slot packs
  /// into 12 bytes, and the record's byte offset in the arena.
  struct Slot {
    std::uint32_t digest_lo;
    std::uint32_t digest_hi;
    std::uint32_t offset;
    std::uint64_t digest() const {
      return (std::uint64_t{digest_hi} << 32) | digest_lo;
    }
  };

  /// The index slot holding `digest`, or nullptr. Caller holds mu_.
  const Slot* find(std::uint64_t digest) const;

  mutable std::mutex mu_;
  std::vector<std::uint8_t> arena_;
  std::vector<Slot> index_;  ///< sorted by digest, one slot per record
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace estima::core
