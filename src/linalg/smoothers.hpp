#pragma once

/// \file smoothers.hpp
/// Stationary smoothers used inside the AMG cycles (and as stand-alone
/// baseline relaxation methods in the solver benchmarks).

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {

/// The diagonal of a matrix as the smoothers read it: the position of each
/// row's diagonal entry inside values() (-1 where structurally absent) and
/// the diagonal values (0 there). It is a snapshot: the owner of a matrix
/// whose values are frozen builds it once (an AMG level at hierarchy setup,
/// SgsPreconditioner at construction) and passes it to every sweep.
struct SmootherDiagonal {
  std::vector<int> index;
  Vec values;

  static SmootherDiagonal of(const CsrMatrix& a);

  /// Heap bytes retained (capacity, matching CsrMatrix::memory_bytes).
  std::size_t memory_bytes() const;
};

/// One weighted Jacobi sweep: x <- x + omega D^{-1} (b - A x).
void jacobi_sweep(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b, Vec& x,
                  double omega = 2.0 / 3.0);

/// One forward Gauss-Seidel sweep (ascending row order).
void gauss_seidel_forward(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                          Vec& x);

/// One backward Gauss-Seidel sweep (descending row order).
void gauss_seidel_backward(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                           Vec& x);

/// Symmetric Gauss-Seidel: forward then backward sweep. This is the default
/// smoother of the AMG K-cycle (symmetric, so the preconditioner stays SPD).
void symmetric_gauss_seidel(const CsrMatrix& a, const SmootherDiagonal& d,
                            const Vec& b, Vec& x);

}  // namespace irf::linalg
