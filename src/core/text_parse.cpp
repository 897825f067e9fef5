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

// "00".."17": the exponents the exact path prints (x in [-11, 17]).
constexpr char kDigitPairs[] = "000102030405060708091011121314151617";

constexpr std::uint64_t kAsciiZeros = 0x3030303030303030ull;

/// The eight decimal digits of v < 10^8 as the bytes of one word, first
/// digit in the lowest byte (so a little-endian store writes them in
/// order), each byte the digit's value 0..9. Three splitting steps run on
/// every lane at once: 4+4 digits in 32-bit lanes, 2+2 in 16-bit lanes,
/// 1+1 in bytes. The reciprocal multiplications are exact in range: y/100
/// is (y*10486)>>20 for y < 43699, and z/10 is (z*103)>>10 for z < 179,
/// and no lane's product reaches the next lane.
std::uint64_t digits8(std::uint32_t v) {
  std::uint64_t x = (v / 10000) | (static_cast<std::uint64_t>(v % 10000)
                                   << 32);
  const std::uint64_t hundreds = ((x * 10486) >> 20) & 0x0000007f0000007full;
  x = hundreds | ((x - hundreds * 100) << 16);
  const std::uint64_t tens = ((x * 103) >> 10) & 0x000f000f000f000full;
  return tens | ((x - tens * 10) << 8);
}

/// Stores the word's bytes lowest first, at any alignment.
void store8(char* at, std::uint64_t word) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  word = __builtin_bswap64(word);
#endif
  std::memcpy(at, &word, sizeof word);
}

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

  // 17 digits: one, then two 8-digit words stored as they are, or with
  // the '.' spliced in by a shifted re-store. Each store writes 8 bytes;
  // only the returned end depends on the digit count, and every byte
  // before it is a digit or the '.'.
  const std::uint64_t top = n / 100000000;
  const char lead = static_cast<char>('0' + top / 100000000);
  const std::uint64_t w1 = digits8(static_cast<std::uint32_t>(top % 100000000));
  const std::uint64_t w2 = digits8(static_cast<std::uint32_t>(n % 100000000));
  // Trailing zeros of the 17 digits: a zero digit is a zero byte before
  // the ASCII bias, and the last digit is the word's top byte.
  int len = 17;
  if (w2 == 0) {
    len = w1 == 0 ? 1 : 9 - __builtin_clzll(w1) / 8;
  } else {
    len = 17 - __builtin_clzll(w2) / 8;
  }
  const std::uint64_t a1 = w1 + kAsciiZeros;
  const std::uint64_t a2 = w2 + kAsciiZeros;

  if (x >= 0 && x < 17) {
    const int whole = x + 1;  // digits before the '.'
    p[0] = lead;
    store8(p + 1, a1);
    store8(p + 9, a2);
    if (len <= whole) return p + whole;
    // Shift the fraction's digits one byte right, then place the '.'.
    if (whole <= 8) {
      store8(p + whole + 1, a1 >> (8 * (whole - 1)));
      store8(p + 10, a2);
    } else {
      store8(p + whole + 1, a2 >> (8 * (whole - 9)));
    }
    p[whole] = '.';
    return p + len + 1;
  }
  if (x >= -4 && x < 0) {
    std::memcpy(p, "0.000", 5);
    p += 1 - x;
    p[0] = lead;
    store8(p + 1, a1);
    store8(p + 9, a2);
    return p + len;
  }
  p[0] = lead;
  p[1] = '.';
  store8(p + 2, a1);
  store8(p + 10, a2);
  p += len > 1 ? len + 1 : 1;
  *p++ = 'e';
  *p++ = x < 0 ? '-' : '+';
  const int ax = x < 0 ? -x : x;  // at most 17: always two digits
  std::memcpy(p, kDigitPairs + 2 * ax, 2);
  p += 2;
  return p;
}

}  // namespace

char* write_f64(char* out, double v) {
  char* p = out;
  if (std::signbit(v)) *p++ = '-';
  if (char* end = format_exact(p, v)) return end;
  const auto r = std::to_chars(out, out + kNumberRoom, v,
                               std::chars_format::general,
                               std::numeric_limits<double>::max_digits10);
  if (r.ec != std::errc()) {
    throw std::logic_error("write_f64: to_chars buffer too small");
  }
  return r.ptr;
}

}  // namespace estima::core::textparse
