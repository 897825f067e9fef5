#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

namespace estima::numeric {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(VectorOps, Norm2) {
  std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

}  // namespace
}  // namespace estima::numeric
