// Unit tests for irf::linalg: vectors, COO/CSR, dense Cholesky, smoothers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/smoothers.hpp"
#include "linalg/vector_ops.hpp"
#include "simd/simd.hpp"

namespace irf::linalg {
namespace {

/// 1-D Laplacian with Dirichlet ends: tridiag(-1, 2, -1), SPD.
CsrMatrix laplacian_1d(int n) {
  TripletBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return CsrMatrix::from_triplets(b);
}

/// Random square matrix with irregular row lengths: a banded skeleton plus
/// scattered long-range entries, so the parallel row chunks of multiply()
/// see uneven rows.
CsrMatrix random_sparse(int n, Rng& rng) {
  TripletBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    b.add(i, i, 4.0 + std::abs(rng.normal()));
    for (int d = 1; d <= 2; ++d) {
      if (i + d < n && rng.uniform() < 0.7) b.add(i, i + d, -rng.uniform());
      if (i - d >= 0 && rng.uniform() < 0.7) b.add(i, i - d, -rng.uniform());
    }
    if (rng.uniform() < 0.15) {
      const int j = static_cast<int>(rng.uniform() * n) % n;
      b.add(i, j, 0.1 * rng.normal());
    }
  }
  return CsrMatrix::from_triplets(b);
}

/// Sequential SpMV in CSR column order — the rounding multiply() must hit.
Vec reference_multiply(const CsrMatrix& a, const Vec& x) {
  Vec y(static_cast<std::size_t>(a.rows()));
  for (int i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (int k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      s += a.values()[k] * x[a.col_idx()[k]];
    }
    y[i] = s;
  }
  return y;
}

bool bit_equal(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

TEST(VectorOps, DotAndNorm) {
  Vec a{1.0, 2.0, 3.0};
  Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm2(Vec{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  Vec a{1.0};
  Vec b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), DimensionError);
  EXPECT_THROW(axpy(1.0, a, b), DimensionError);
}

TEST(VectorOps, AxpyXpby) {
  Vec x{1.0, 2.0};
  Vec y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  xpby(x, 0.5, y);  // y = x + 0.5 y
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 14.0);
}

TEST(VectorOps, NonFiniteDetection) {
  EXPECT_FALSE(has_non_finite(Vec{1.0, -2.0}));
  EXPECT_TRUE(has_non_finite(Vec{1.0, std::nan("")}));
  EXPECT_TRUE(has_non_finite(Vec{1.0, INFINITY}));
}

TEST(TripletBuilder, RejectsOutOfRange) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), DimensionError);
  EXPECT_THROW(b.add(0, -1, 1.0), DimensionError);
}

TEST(CsrMatrix, DuplicatesAccumulate) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(CsrMatrix, DuplicateTripletsInFirstAndLastRows) {
  TripletBuilder b(3, 3);
  // First row: duplicates at its very first entry (the merge test must not
  // rely on a previous row existing).
  b.add(0, 1, 1.0);
  b.add(0, 1, 4.0);
  b.add(0, 2, 2.0);
  // Last row: duplicates at the final entry of the matrix.
  b.add(2, 0, -1.0);
  b.add(2, 2, 3.0);
  b.add(2, 2, 7.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 10.0);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.row_ptr()[1], 2);  // row 0 merged to two entries
  EXPECT_EQ(m.row_ptr()[2], 2);  // row 1 is empty
  EXPECT_EQ(m.row_ptr()[3], 4);
}

TEST(CsrMatrix, SameColumnAcrossAdjacentRowsDoesNotMerge) {
  // Row 0 ends with column 2 and row 1 starts with column 2: these are
  // adjacent in CSR storage but belong to different rows, so they must stay
  // separate entries.
  TripletBuilder b(2, 3);
  b.add(0, 2, 5.0);
  b.add(1, 2, 7.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
}

TEST(CsrMatrix, SpMvMatchesDense) {
  Rng rng(3);
  const int n = 12;
  TripletBuilder b(n, n);
  for (int k = 0; k < 50; ++k) {
    b.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.normal());
  }
  CsrMatrix sparse = CsrMatrix::from_triplets(b);
  DenseMatrix dense = DenseMatrix::from_csr(sparse);
  Vec x(n);
  for (double& v : x) v = rng.normal();
  Vec ys = sparse.multiply(x);
  Vec yd = dense.multiply(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(CsrMatrix, MultiplyMatchesReferenceAcrossShapes) {
  Rng rng(29);
  for (int n : {1, 5, 8, 9, 17, 64, 200, 1041, 4099}) {
    const CsrMatrix a = random_sparse(n, rng);
    const Vec x = random_vec(static_cast<std::size_t>(n), rng);
    Vec y(3, 7.0);  // stale contents and size must not leak into the result
    a.multiply(x, y);
    EXPECT_TRUE(bit_equal(y, reference_multiply(a, x))) << "n=" << n;
  }
}

TEST(Simd, MultiplyBitIdenticalWithGateOnAndOff) {
  // SpMV has no irf::simd kernel; the gate must leave it untouched.
  const bool was = simd::enabled();
  Rng rng(43);
  const CsrMatrix a = random_sparse(513, rng);
  Vec x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.normal();

  Vec y_off, y_on;
  simd::set_enabled(false);
  a.multiply(x, y_off);
  simd::set_enabled(true);
  a.multiply(x, y_on);
  simd::set_enabled(was);
  EXPECT_TRUE(bit_equal(y_off, y_on));
  EXPECT_TRUE(bit_equal(y_off, reference_multiply(a, x)));
}

TEST(CsrMatrix, MultiplySeesMutableValuesEdits) {
  Rng rng(67);
  CsrMatrix a = random_sparse(300, rng);
  const Vec x = random_vec(static_cast<std::size_t>(a.rows()), rng);
  const Vec y_before = a.multiply(x);
  for (double& v : a.mutable_values()) v *= 2.0;
  const Vec y_after = a.multiply(x);
  EXPECT_TRUE(bit_equal(y_after, reference_multiply(a, x)));
  for (std::size_t i = 0; i < y_after.size(); ++i) {
    EXPECT_EQ(y_after[i], 2.0 * y_before[i]);
  }
}

// CsrMatrix is a plain value type: the compiler-generated copy and move
// carry the three CSR arrays and nothing else.
static_assert(std::is_nothrow_move_constructible_v<CsrMatrix>);
static_assert(std::is_nothrow_move_assignable_v<CsrMatrix>);

TEST(CsrMatrix, CopyIsIndependentAfterMutableValues) {
  Rng rng(73);
  CsrMatrix a = random_sparse(200, rng);
  const Vec x = random_vec(static_cast<std::size_t>(a.rows()), rng);
  const std::vector<double> original = a.values();
  const Vec y = a.multiply(x);

  CsrMatrix copy = a;
  for (double& v : copy.mutable_values()) v *= 3.0;
  EXPECT_EQ(a.values(), original);
  EXPECT_TRUE(bit_equal(a.multiply(x), y));
  EXPECT_TRUE(bit_equal(copy.multiply(x), reference_multiply(copy, x)));

  for (double& v : a.mutable_values()) v = -v;
  for (std::size_t k = 0; k < original.size(); ++k) {
    EXPECT_EQ(copy.values()[k], 3.0 * original[k]);
  }

  CsrMatrix assigned;
  assigned = copy;
  CsrMatrix moved = std::move(copy);
  EXPECT_EQ(moved.values(), assigned.values());
  EXPECT_TRUE(bit_equal(moved.multiply(x), assigned.multiply(x)));
}

TEST(CsrMatrix, StampConductanceSymmetric) {
  TripletBuilder b(3, 3);
  b.stamp_conductance(0, 1, 2.0);
  b.stamp_conductance(1, 2, 3.0);
  b.stamp_grounded_conductance(0, 1.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_TRUE(m.is_symmetric());
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  EXPECT_TRUE(m.is_diagonally_dominant());
}

TEST(CsrMatrix, RowSumsOfLaplacianInterior) {
  CsrMatrix m = laplacian_1d(5);
  Vec s = m.row_sums();
  // Interior rows sum to 0; boundary rows to +1 (Dirichlet).
  EXPECT_DOUBLE_EQ(s[2], 0.0);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[4], 1.0);
}

TEST(CsrMatrix, TransposeInvolution) {
  Rng rng(4);
  TripletBuilder b(5, 7);
  for (int k = 0; k < 15; ++k) {
    b.add(rng.uniform_int(0, 4), rng.uniform_int(0, 6), rng.normal());
  }
  CsrMatrix m = CsrMatrix::from_triplets(b);
  CsrMatrix mtt = m.transposed().transposed();
  ASSERT_EQ(m.rows(), mtt.rows());
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) EXPECT_NEAR(m.at(r, c), mtt.at(r, c), 1e-15);
  }
}

TEST(CsrMatrix, IdentityMultiply) {
  CsrMatrix eye = CsrMatrix::identity(4);
  Vec x{1.0, 2.0, 3.0, 4.0};
  Vec y = eye.multiply(x);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Cholesky, SolvesSpdSystem) {
  CsrMatrix a = laplacian_1d(10);
  CholeskyFactor chol(DenseMatrix::from_csr(a));
  Rng rng(8);
  Vec x_true(10);
  for (double& v : x_true) v = rng.normal();
  Vec b = a.multiply(x_true);
  Vec x = chol.solve(b);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(1, 1) = -1.0;
  EXPECT_THROW(CholeskyFactor{m}, NumericError);
}

TEST(Cholesky, RejectsNonSquare) {
  DenseMatrix m(2, 3);
  EXPECT_THROW(CholeskyFactor{m}, DimensionError);
}

TEST(Smoothers, GaussSeidelConvergesOnSmallSystem) {
  CsrMatrix a = laplacian_1d(8);
  CholeskyFactor chol(DenseMatrix::from_csr(a));
  Vec b(8, 1.0);
  Vec x_exact = chol.solve(b);
  Vec x(8, 0.0);
  const SmootherDiagonal d = SmootherDiagonal::of(a);
  for (int s = 0; s < 300; ++s) gauss_seidel_forward(a, d, b, x);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_exact[i], 1e-8);
}

TEST(Smoothers, SymmetricGsBeatsSingleSweep) {
  CsrMatrix a = laplacian_1d(30);
  Vec b(30, 1.0);
  Vec x1(30, 0.0), x2(30, 0.0);
  const SmootherDiagonal d = SmootherDiagonal::of(a);
  gauss_seidel_forward(a, d, b, x1);
  symmetric_gauss_seidel(a, d, b, x2);
  double r1 = norm2(subtract(b, a.multiply(x1)));
  double r2 = norm2(subtract(b, a.multiply(x2)));
  EXPECT_LT(r2, r1);
}

TEST(Smoothers, ZeroDiagonalThrows) {
  TripletBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  CsrMatrix a = CsrMatrix::from_triplets(builder);
  Vec b(2, 1.0), x(2, 0.0);
  const SmootherDiagonal d = SmootherDiagonal::of(a);
  EXPECT_EQ(d.index[0], -1);
  EXPECT_THROW(gauss_seidel_forward(a, d, b, x), NumericError);
  EXPECT_THROW(symmetric_gauss_seidel(a, d, b, x), NumericError);
}

}  // namespace
}  // namespace irf::linalg
