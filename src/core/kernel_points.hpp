// Per-point forms of the Table-1 kernels, shared verbatim by kernel_eval,
// the SoA panels and the scalar oracle (tests/oracle/), so every entry
// point agrees bit-for-bit. The arithmetic reproduces the original power-accumulation loops
// exactly: sums associate left starting from the accumulator seed (0.0 for
// numerators, 1.0 for denominators) and powers are built by repeated
// multiplication (n2 = n * n, n3 = n2 * n), so the restructuring cannot
// move a rounding. The leading `0.0 +` on the rational numerators is not
// dead code: the original accumulator started at 0.0, which turns a -0.0
// first term into +0.0; dropping it could flip the sign of an all-zero
// numerator.
//
// Every parameter is received by value (hoisted out of the parameter
// vector by the caller), so the point loops that call these carry no
// per-point std::vector indirection and vectorize.
#pragma once

#include <cmath>

namespace estima::core {

inline double rat22_point(double n, double a0, double a1, double a2,
                          double b1, double b2) {
  const double n2 = n * n;
  const double num = 0.0 + a0 + a1 * n + a2 * n2;
  const double den = 1.0 + b1 * n + b2 * n2;
  return num / den;
}

inline double rat23_point(double n, double a0, double a1, double a2,
                          double b1, double b2, double b3) {
  const double n2 = n * n;
  const double n3 = n2 * n;
  const double num = 0.0 + a0 + a1 * n + a2 * n2;
  const double den = 1.0 + b1 * n + b2 * n2 + b3 * n3;
  return num / den;
}

inline double rat33_point(double n, double a0, double a1, double a2,
                          double a3, double b1, double b2, double b3) {
  const double n2 = n * n;
  const double n3 = n2 * n;
  const double num = 0.0 + a0 + a1 * n + a2 * n2 + a3 * n3;
  const double den = 1.0 + b1 * n + b2 * n2 + b3 * n3;
  return num / den;
}

inline double cubicln_point(double l, double a, double b, double c,
                            double d) {
  return a + b * l + c * l * l + d * l * l * l;
}

inline double exprat_point(double n, double a, double b, double d) {
  return std::exp((a + b * n) / (1.0 + d * n));
}

inline double poly25_point(double n, double sq, double a, double b, double c,
                           double d) {
  return a + b * n + c * n * n + d * n * n * sq;
}

}  // namespace estima::core
