#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using maxutil::la::CsrMatrix;
using maxutil::la::Matrix;
using maxutil::la::SparseColumnView;
using maxutil::la::SparseLu;
using maxutil::la::Triplet;
using maxutil::util::CheckError;
using maxutil::util::Rng;

/// Column-wise (row, value) copy of a dense matrix's non-zeros — the input
/// shape SparseLu factorizes. Keeps the storage the views point into.
struct Columns {
  explicit Columns(const Matrix& a) : rows(a.cols()), values(a.cols()) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      for (std::size_t r = 0; r < a.rows(); ++r) {
        if (a(r, c) == 0.0) continue;
        rows[c].push_back(static_cast<std::uint32_t>(r));
        values[c].push_back(a(r, c));
      }
      views.push_back({rows[c], values[c]});
    }
  }
  std::vector<std::vector<std::uint32_t>> rows;
  std::vector<std::vector<double>> values;
  std::vector<SparseColumnView> views;
};

/// Solves A x = b through a SparseLu factorization of `a`.
std::vector<double> solve_sparse(const Matrix& a, std::vector<double> b) {
  const Columns columns(a);
  const SparseLu lu(a.rows(), columns.views);
  lu.solve_in_place(b);
  return b;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_THROW(m(2, 0), CheckError);
  EXPECT_THROW(m(0, 3), CheckError);
}

TEST(Matrix, InitializerListAndRaggedRejected) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix({{1.0, 2.0}, {3.0}}), CheckError);
}

TEST(Matrix, IdentityMultiply) {
  const Matrix eye = Matrix::identity(3);
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_EQ(eye.multiply(x), x);
}

TEST(Matrix, MultiplyKnown) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const auto y = m.multiply(std::vector<double>{1.0, 1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
  const auto xt = m.multiply_transposed(std::vector<double>{1.0, 0.0, 1.0});
  ASSERT_EQ(xt.size(), 2u);
  EXPECT_DOUBLE_EQ(xt[0], 6.0);
  EXPECT_DOUBLE_EQ(xt[1], 8.0);
}

TEST(Matrix, MatrixProductAndTranspose) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
  const Matrix at = a.transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(at(1, 0), 2.0);
}

TEST(Matrix, SwapRows) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  m.swap_rows(0, 1);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 2.0);
}

TEST(Lu, SolvesKnownSystem) {
  // x + 2y = 5; 3x + 4y = 11  ->  x = 1, y = 2.
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const auto x = solve_sparse(a, {5.0, 11.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero top-left pivot forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = solve_sparse(a, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  // A singular basis is reported, not thrown at construction (a simplex
  // caller repairs it); solving with it throws.
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const Columns columns(a);
  const SparseLu lu(2, columns.views);
  EXPECT_TRUE(lu.singular());
  std::vector<double> b{1.0, 1.0};
  EXPECT_THROW(lu.solve_in_place(b), CheckError);
  EXPECT_THROW(lu.solve_transposed_in_place(b), CheckError);
}

TEST(Lu, NonSquareThrows) {
  const Matrix a{{1.0, 0.0, 1.0}, {0.0, 1.0, 1.0}};
  const Columns columns(a);
  EXPECT_THROW(SparseLu(2, columns.views), CheckError);
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 12));
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
      a(r, r) += 4.0;  // diagonally dominant, hence invertible
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-10.0, 10.0);
    const auto x = solve_sparse(a, a.multiply(x_true));
    EXPECT_LT(maxutil::util::max_abs_diff(x, x_true), 1e-8);
  }
}

TEST(Lu, TransposedSolveRoundTrip) {
  Rng rng(103);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 3.0;
  }
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = a.multiply_transposed(x_true);  // b = A^T x
  const Columns columns(a);
  const SparseLu lu(n, columns.views);
  ASSERT_FALSE(lu.singular());
  lu.solve_transposed_in_place(x);
  EXPECT_LT(maxutil::util::max_abs_diff(x, x_true), 1e-9);
}

TEST(Csr, AssemblyAccumulatesDuplicates) {
  CsrMatrix m(2, 2,
              {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 1.0}});
  EXPECT_EQ(m.nonzeros(), 2u);
  ASSERT_EQ(m.row_columns(0).size(), 1u);
  EXPECT_EQ(m.row_columns(0)[0], 1u);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 5.0);
  ASSERT_EQ(m.row_columns(1).size(), 1u);
  EXPECT_EQ(m.row_columns(1)[0], 0u);
  EXPECT_DOUBLE_EQ(m.row_values(1)[0], 1.0);
  EXPECT_THROW(m.row_columns(2), CheckError);
}

TEST(Csr, OutOfRangeEntryThrows) {
  EXPECT_THROW(CsrMatrix(2, 2, {{2, 0, 1.0}}), CheckError);
  EXPECT_THROW(CsrMatrix(2, 2, {{0, 2, 1.0}}), CheckError);
}

TEST(Csr, MultiplyMatchesDense) {
  // Products taken through the row views (A x by rows, A^T y by scattering
  // rows — how the revised simplex reads its CSC copy) match la::Matrix.
  Rng rng(107);
  const std::size_t n = 20;
  Matrix dense(n, n);
  std::vector<Triplet> entries;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.chance(0.2)) {
        const double v = rng.uniform(-1.0, 1.0);
        dense(r, c) = v;
        entries.push_back({r, c, v});
      }
    }
  }
  const CsrMatrix sparse(n, n, entries);
  EXPECT_EQ(sparse.nonzeros(), entries.size());
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);
  std::vector<double> ax(n, 0.0), atx(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto cols = sparse.row_columns(r);
    const auto vals = sparse.row_values(r);
    ASSERT_EQ(cols.size(), vals.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(cols[k - 1], cols[k]);  // sorted within a row
      }
      ax[r] += vals[k] * x[cols[k]];
      atx[cols[k]] += vals[k] * x[r];
    }
  }
  EXPECT_LT(maxutil::util::max_abs_diff(ax, dense.multiply(x)), 1e-12);
  EXPECT_LT(maxutil::util::max_abs_diff(atx, dense.multiply_transposed(x)),
            1e-12);
}

}  // namespace
