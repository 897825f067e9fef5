#include "core/text_parse.hpp"

#include <array>
#include <cstring>

namespace estima::core::textparse {
namespace {

// 5^0 .. 5^27: the q range of the exact path (5^27 < 2^63).
constexpr auto kPow5 = [] {
  std::array<std::uint64_t, 28> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 5;
  return p;
}();

constexpr std::uint64_t kTen16 = 10000000000000000ull;
constexpr std::uint64_t kTen17 = 100000000000000000ull;

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/// Writes |v| as %.17g to `p` and returns the end, or nullptr when v is
/// zero, subnormal, non-finite or has a decimal exponent outside [-11, 16].
char* format_exact(char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  // Every k in [-11, 16] lies in 2^-37 <= |v| < 2^57; there the shifts
  // below stay under 90 bits and every product under 2^116.
  if (biased < 1023 - 37 || biased > 1023 + 56) return nullptr;
  const int e2 = biased - 1023;  // |v| in [2^e2, 2^(e2+1))
  const std::uint64_t m = (bits & ((1ull << 52) - 1)) | (1ull << 52);
  const int e = e2 - 52;  // |v| = m * 2^e

  // k = floor(log10 |v|) is floor(e2*log10 2) or one more. Start from the
  // upper estimate, floor((e2+1)*log10 2); the integer part lies in
  // [10^16, 10^17) exactly when k is right, so the loop corrects it.
  int k = ((e2 + 1) * 78913) >> 18;
  if (k > 16) k = 16;
  std::uint64_t n = 0;
  for (;;) {
    if (k < -11 || k > 16) return nullptr;
    const int q = 16 - k;
    // |v| * 10^q = m * 5^q * 2^(e+q) = whole + rem / 2^-(e+q), exactly.
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(m) * kPow5[q];
    const int s = e + q;
    const unsigned __int128 whole = s >= 0 ? prod << s : prod >> -s;
    if (whole < kTen16) {
      --k;
      continue;
    }
    if (whole >= kTen17) {
      ++k;
      continue;
    }
    n = static_cast<std::uint64_t>(whole);
    if (s < 0) {
      // Round half to even on the exact remainder.
      const unsigned __int128 rem = prod - (whole << -s);
      const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                     << (-s - 1);
      n += rem > half || (rem == half && (n & 1));
    }
    break;
  }
  int x = k;  // %g's exponent: k, or k+1 when rounding carried to 10^17
  if (n == kTen17) {
    n = kTen16;
    ++x;
  }

  // 17 digits: one, then two 8-digit halves written as independent
  // 4-digit groups. The '0' padding lets the layout below copy 16 bytes
  // from any digit position.
  char d[33];
  std::memset(d + 17, '0', 16);
  const std::uint64_t top = n / 100000000;
  const auto halves = [&](char* at, std::uint32_t v8) {
    const std::uint32_t hi4 = v8 / 10000;
    const std::uint32_t lo4 = v8 % 10000;
    std::memcpy(at, kDigitPairs + 2 * (hi4 / 100), 2);
    std::memcpy(at + 2, kDigitPairs + 2 * (hi4 % 100), 2);
    std::memcpy(at + 4, kDigitPairs + 2 * (lo4 / 100), 2);
    std::memcpy(at + 6, kDigitPairs + 2 * (lo4 % 100), 2);
  };
  d[0] = static_cast<char>('0' + top / 100000000);
  halves(d + 1, static_cast<std::uint32_t>(top % 100000000));
  halves(d + 9, static_cast<std::uint32_t>(n % 100000000));
  int len = 17;
  while (len > 1 && d[len - 1] == '0') --len;

  // Fixed-size copies (the caller's 48-byte buffer has room for them);
  // only the returned end depends on the digit count.
  if (x >= 0 && x < 17) {
    const int whole_digits = x + 1;
    std::memcpy(p, d, 17);
    if (len <= whole_digits) return p + whole_digits;
    p[whole_digits] = '.';
    std::memcpy(p + whole_digits + 1, d + whole_digits, 16);
    return p + len + 1;
  }
  if (x >= -4 && x < 0) {
    std::memcpy(p, "0.000", 5);
    p += 1 - x;
    std::memcpy(p, d, 17);
    return p + len;
  }
  p[0] = d[0];
  p[1] = '.';
  std::memcpy(p + 2, d + 1, 16);
  p += len > 1 ? len + 1 : 1;
  *p++ = 'e';
  *p++ = x < 0 ? '-' : '+';
  const int ax = x < 0 ? -x : x;  // at most 17: always two digits
  std::memcpy(p, kDigitPairs + 2 * ax, 2);
  p += 2;
  return p;
}

}  // namespace

void append_f64(std::string& out, double v) {
  // Longest %.17g form: sign, 17 digits, '.', "e-308" = 24 chars;
  // format_exact's fixed-size copies reach byte 36.
  char buf[48];
  char* p = buf;
  if (std::signbit(v)) *p++ = '-';
  if (char* end = format_exact(p, v)) {
    out.append(buf, end);
    return;
  }
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general,
                               std::numeric_limits<double>::max_digits10);
  if (r.ec != std::errc()) {
    throw std::logic_error("append_f64: to_chars buffer too small");
  }
  out.append(buf, r.ptr);
}

}  // namespace estima::core::textparse
