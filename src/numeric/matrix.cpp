#include "numeric/matrix.hpp"

#include <cmath>

namespace estima::numeric {

double norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

}  // namespace estima::numeric
