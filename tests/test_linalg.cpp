#include "numeric/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace estima::numeric {
namespace {

TEST(LeastSquares, ExactSquareSystem) {
  Matrix A(2, 2);
  A(0, 0) = 2.0;
  A(1, 1) = 4.0;
  std::vector<double> b{6.0, 8.0};
  auto r = least_squares(A, b);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x[0], 3.0, 1e-12);
  EXPECT_NEAR(r->x[1], 2.0, 1e-12);
  EXPECT_NEAR(r->residual_norm, 0.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedLineFit) {
  // y = 2x + 1 with an outlier-free sample: recover exactly.
  Matrix A(5, 2);
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) {
    A(i, 0) = 1.0;
    A(i, 1) = i;
    b[i] = 1.0 + 2.0 * i;
  }
  auto r = least_squares(A, b);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x[0], 1.0, 1e-10);
  EXPECT_NEAR(r->x[1], 2.0, 1e-10);
}

TEST(LeastSquares, ResidualOfInconsistentSystem) {
  // Points (0,0), (1,1), (2,0) fit by a constant: c = 1/3, residual > 0.
  Matrix A(3, 1, 1.0);
  std::vector<double> b{0.0, 1.0, 0.0};
  auto r = least_squares(A, b);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x[0], 1.0 / 3.0, 1e-12);
  EXPECT_GT(r->residual_norm, 0.1);
}

TEST(LeastSquares, UnderdeterminedReturnsNullopt) {
  Matrix A(2, 3, 1.0);
  std::vector<double> b{1.0, 2.0};
  EXPECT_FALSE(least_squares(A, b).has_value());
}

TEST(LeastSquares, RankDeficientReturnsNullopt) {
  // Two identical columns.
  Matrix A(3, 2);
  for (int i = 0; i < 3; ++i) A(i, 0) = A(i, 1) = i + 1.0;
  std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_FALSE(least_squares(A, b).has_value());
}

TEST(Ridge, SolvesUnderdetermined) {
  Matrix A(2, 3);
  A(0, 0) = 1.0;
  A(1, 1) = 1.0;
  std::vector<double> b{1.0, 2.0};
  auto r = ridge(A, b, 1e-10);
  ASSERT_EQ(r.x.size(), 3u);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 2.0, 1e-4);
  EXPECT_NEAR(r.x[2], 0.0, 1e-6);  // minimum-norm picks 0 for the free var
}

TEST(Ridge, LargeLambdaShrinksSolution) {
  Matrix A(2, 1, 1.0);
  std::vector<double> b{1.0, 1.0};
  auto weak = ridge(A, b, 1e-12);
  auto strong = ridge(A, b, 100.0);
  EXPECT_NEAR(weak.x[0], 1.0, 1e-6);
  EXPECT_LT(std::fabs(strong.x[0]), 0.1);
  // The residual is measured against the original, unaugmented system.
  EXPECT_NEAR(strong.residual_norm, std::sqrt(2.0) * (1.0 - strong.x[0]),
              1e-12);
}

// The library's Cholesky is the flat-array factor the lockstep LM engine
// drains its damping queues through (a 2 x 2 here, row-major).
TEST(Cholesky, FactorsSpdMatrix) {
  const double A[4] = {4.0, 2.0, 2.0, 3.0};
  double L[4] = {};
  ASSERT_TRUE(cholesky_factor_raw(A, 2, L));
  EXPECT_NEAR(L[0] * L[0], 4.0, 1e-12);
  EXPECT_NEAR(L[2] * L[0], 2.0, 1e-12);
  EXPECT_NEAR(L[2] * L[2] + L[3] * L[3], 3.0, 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const double A[4] = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3 and -1
  double L[4] = {};
  EXPECT_FALSE(cholesky_factor_raw(A, 2, L));
}

}  // namespace
}  // namespace estima::numeric
