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

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, MatVec) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<double> v{1.0, -1.0};
  auto r = a * v;
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], -1.0);
  EXPECT_DOUBLE_EQ(r[1], -1.0);
}

TEST(VectorOps, Norm2) {
  std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

}  // namespace
}  // namespace estima::numeric
