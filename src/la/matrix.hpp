#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace maxutil::la {

/// Dense row-major matrix of doubles.
///
/// Deliberately minimal: the dense tableau simplex (the LP oracle) needs
/// contiguous row access and O(1) element access, nothing more.
/// Value-semantic (rule of zero).
class Matrix {
 public:
  /// Zero-filled rows x cols matrix. Either dimension may be zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Builds from nested initializer lists; all rows must agree in width.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// The n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Mutable element access (row r, column c); bounds-checked.
  double& operator()(std::size_t r, std::size_t c);

  /// Const element access; bounds-checked.
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  /// Matrix-vector product A x; x.size() must equal cols().
  std::vector<double> multiply(std::span<const double> x) const;

  /// Transposed matrix-vector product A^T y; y.size() must equal rows().
  std::vector<double> multiply_transposed(std::span<const double> y) const;

  /// Dense matrix product A * B.
  Matrix multiply(const Matrix& other) const;

  /// Returns the transpose as a new matrix.
  Matrix transposed() const;

  /// Swaps rows a and b in place.
  void swap_rows(std::size_t a, std::size_t b);

  /// Underlying storage (row-major), for tight loops in the solvers.
  std::span<const double> data() const { return data_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace maxutil::la
