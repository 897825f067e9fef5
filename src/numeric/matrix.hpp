// Dense row-major matrix and vector types used by the fitting engine.
//
// The matrices involved in ESTIMA's regression problems are tiny (tens of
// rows, at most seven columns), so this module favours clarity and
// numerical robustness over blocking/vectorisation.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace estima::numeric {

/// A dense, row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshapes to rows x cols filled with `fill`, reusing the existing
  /// buffer when its capacity suffices (no allocation on repeated
  /// same-size use — the levmar workspace relies on this).
  void resize(std::size_t rows, std::size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm2(const std::vector<double>& v);

}  // namespace estima::numeric
