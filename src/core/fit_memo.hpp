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
// byte-identical to a cold predict(). Two properties deliver that:
//   * keys digest the RAW BIT PATTERNS of the prefix data (no -0.0/NaN
//     canonicalization) plus the kernel id and every FitOptions field, so
//     an entry can only ever be replayed against bit-equal inputs;
//   * entries store the fit outcome (FittedFunction or "no fit") together
//     with its FitDiag, so the serial audit emission replays the exact
//     records the executed fit produced.
// Everything downstream of the fit (realism walks, checkpoint scoring,
// prediction panels) depends on the full series and is recomputed on
// every call — only the expensive LM refinement is memoized.
//
// Thread safety: all methods are safe to call concurrently; one memo is
// shared by the parallel category fan-out. Each enumeration looks up all
// its (kernel, prefix) slots before its fit jobs run and inserts the
// executed ones after they all completed, never from inside a job. Like
// `pool` and `audit`, the memo rides in the ExecContext, outside
// config_signature — it cannot change produced values, only how fast
// they are produced.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

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
};

class FitMemo {
 public:
  FitMemo() = default;
  FitMemo(const FitMemo&) = delete;
  FitMemo& operator=(const FitMemo&) = delete;

  /// Digest of one fit job's full input: kernel id, FitOptions, prefix
  /// length, and the raw bits of xs[0..prefix) / ys[0..prefix). Bit-equal
  /// inputs — and only bit-equal inputs — share a key.
  static std::uint64_t key_of(KernelType type, const double* xs,
                              const double* ys, std::size_t prefix,
                              const FitOptions& opts);

  /// Copies the entry for `key` into `*out` and counts a hit; counts a
  /// miss and leaves `*out` untouched when absent.
  bool lookup(std::uint64_t key, FitMemoEntry* out);

  /// Inserts (or overwrites — same key means bit-equal input, so the
  /// value is identical) the entry for `key`.
  void insert(std::uint64_t key, FitMemoEntry entry);

  FitMemoStats stats() const;

  /// Drops every entry (a replaced campaign is a brand-new series whose
  /// old fits must never replay) while keeping the cumulative hit/miss
  /// counters — the accounting spans the memo's lifetime, not one series.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, FitMemoEntry> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace estima::core
