#include "core/fit_memo.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>

#include "core/hash.hpp"

namespace estima::core {
namespace {

// Raw bit-pattern feed: Fnv1a::f64 canonicalizes -0.0 and NaN payloads,
// which is right for campaign identity but too loose here — the identity
// contract promises replay only against bit-equal inputs.
inline void raw_f64(Fnv1a& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  h.u64(bits);
}

// Record codec (layout in fit_memo.hpp). The arena lives only in this
// process, so doubles are copied in host byte order.
constexpr std::uint8_t kHasFit = 1;
constexpr std::uint8_t kSolved = 2;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

std::uint64_t zigzag(int v) {
  const auto w = static_cast<std::int64_t>(v);
  return (static_cast<std::uint64_t>(w) << 1) ^
         static_cast<std::uint64_t>(w >> 63);
}

int unzigzag(std::uint64_t z) {
  return static_cast<int>(static_cast<std::int64_t>(z >> 1) ^
                          -static_cast<std::int64_t>(z & 1));
}

std::size_t record_size(const FitMemo::Fresh& f) {
  const FitDiag& d = *f.diag;
  std::size_t n = 3 + varint_size(f.key.prefix) + varint_size(d.starts.size());
  if (f.fn->has_value()) {
    const std::size_t np = (*f.fn)->params.size();
    n += 1 + varint_size(np) + 8 * (1 + np);
  }
  for (const FitDiag::Start& s : d.starts) {
    n += 8 + varint_size(s.model_evals) + varint_size(zigzag(s.iterations)) +
         1;
  }
  return n;
}

class Writer {
 public:
  explicit Writer(std::uint8_t* p) : p_(p) {}
  std::uint8_t* pos() const { return p_; }
  void u8(std::uint8_t v) { *p_++ = v; }
  void f64(double v) {
    std::memcpy(p_, &v, sizeof v);
    p_ += sizeof v;
  }
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) *p_++ = static_cast<std::uint8_t>(v | 0x80);
    *p_++ = static_cast<std::uint8_t>(v);
  }

 private:
  std::uint8_t* p_;
};

class Reader {
 public:
  explicit Reader(const std::uint8_t* p) : p_(p) {}
  std::uint8_t u8() { return *p_++; }
  double f64() {
    double v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t b = *p_++;
      v |= std::uint64_t{b & 0x7Fu} << shift;
      if (b < 0x80) return v;
    }
  }

 private:
  const std::uint8_t* p_;
};

// Writes f's record at `out`; returns the end of the record.
std::uint8_t* encode(const FitMemo::Fresh& f, std::uint8_t* out) {
  const FitDiag& d = *f.diag;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(f.key.kernel));
  w.u8(static_cast<std::uint8_t>(d.path));
  w.u8(static_cast<std::uint8_t>((f.fn->has_value() ? kHasFit : 0) |
                                 (d.solved ? kSolved : 0)));
  w.varint(f.key.prefix);
  w.varint(d.starts.size());
  if (f.fn->has_value()) {
    const FittedFunction& fn = **f.fn;
    w.u8(static_cast<std::uint8_t>(fn.type));
    w.varint(fn.params.size());
    w.f64(fn.y_scale);
    for (double p : fn.params) w.f64(p);
  }
  for (const FitDiag::Start& s : d.starts) {
    w.f64(s.rmse);
    w.varint(s.model_evals);
    w.varint(zigzag(s.iterations));
    w.u8(static_cast<std::uint8_t>(s.term));
  }
  return w.pos();
}

}  // namespace

FitMemo::Key FitMemo::key_of(KernelType type, const double* xs,
                             const double* ys, std::size_t prefix,
                             const FitOptions& opts) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(type));
  raw_f64(h, opts.ridge_lambda);
  h.i64(opts.levmar_max_iterations);
  h.u64(prefix);
  for (std::size_t i = 0; i < prefix; ++i) raw_f64(h, xs[i]);
  for (std::size_t i = 0; i < prefix; ++i) raw_f64(h, ys[i]);
  return Key{h.value(), prefix, type};
}

const FitMemo::Slot* FitMemo::find(std::uint64_t digest) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), digest,
      [](const Slot& s, std::uint64_t d) { return s.digest() < d; });
  return it != index_.end() && it->digest() == digest ? &*it : nullptr;
}

bool FitMemo::lookup(const Key& key, FitMemoEntry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Slot* slot = find(key.digest);
  if (slot == nullptr) {
    ++misses_;
    return false;
  }
  Reader r(arena_.data() + slot->offset);
  const std::uint8_t kernel = r.u8();
  const auto path = static_cast<FitDiag::Path>(r.u8());
  const std::uint8_t flags = r.u8();
  if (kernel != static_cast<std::uint8_t>(key.kernel) ||
      r.varint() != key.prefix) {
    ++misses_;
    return false;
  }
  ++hits_;
  if (out == nullptr) return true;
  const std::size_t n_starts = r.varint();
  out->fn.reset();
  if (flags & kHasFit) {
    FittedFunction& fn = out->fn.emplace();
    fn.type = static_cast<KernelType>(r.u8());
    fn.params.resize(r.varint());
    fn.y_scale = r.f64();
    for (double& p : fn.params) p = r.f64();
  }
  out->diag.path = path;
  out->diag.solved = (flags & kSolved) != 0;
  out->diag.starts.resize(n_starts);
  for (FitDiag::Start& s : out->diag.starts) {
    s.rmse = r.f64();
    s.model_evals = static_cast<std::size_t>(r.varint());
    s.iterations = unzigzag(r.varint());
    s.term = static_cast<numeric::LevMarTermination>(r.u8());
  }
  return true;
}

void FitMemo::insert(const std::vector<Fresh>& batch) {
  if (batch.empty()) return;
  // Batch order sorted by digest; stable, so a repeated digest keeps its
  // first occurrence.
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return batch[a].key.digest < batch[b].key.digest;
                   });

  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> keep;
  std::size_t bytes = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Fresh& f = batch[order[k]];
    if (k > 0 && batch[order[k - 1]].key.digest == f.key.digest) continue;
    if (find(f.key.digest) != nullptr) continue;
    keep.push_back(order[k]);
    bytes += record_size(f);
  }
  if (keep.empty()) return;
  const std::size_t base = arena_.size();
  if (bytes > std::numeric_limits<std::uint32_t>::max() - base) return;

  // Exact growth: one reallocation to the batch's size, no doubling slack.
  arena_.reserve(base + bytes);
  arena_.resize(base + bytes);
  std::vector<Slot> fresh;
  fresh.reserve(keep.size());
  std::uint8_t* at = arena_.data() + base;
  for (std::size_t i : keep) {
    const std::uint64_t digest = batch[i].key.digest;
    fresh.push_back(Slot{static_cast<std::uint32_t>(digest),
                         static_cast<std::uint32_t>(digest >> 32),
                         static_cast<std::uint32_t>(at - arena_.data())});
    at = encode(batch[i], at);
  }

  std::vector<Slot> merged;
  merged.reserve(index_.size() + fresh.size());
  std::merge(index_.begin(), index_.end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged), [](const Slot& a, const Slot& b) {
               return a.digest() < b.digest();
             });
  index_.swap(merged);
}

void FitMemo::insert(const Key& key, const FitMemoEntry& entry) {
  insert(std::vector<Fresh>{Fresh{key, &entry.fn, &entry.diag}});
}

FitMemoStats FitMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FitMemoStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = index_.size();
  s.bytes = arena_.capacity() + index_.capacity() * sizeof(Slot);
  return s;
}

void FitMemo::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint8_t>().swap(arena_);
  std::vector<Slot>().swap(index_);
}

}  // namespace estima::core
