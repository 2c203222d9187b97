#pragma once

/// \file smoothers.hpp
/// Gauss-Seidel smoothers used inside the AMG K-cycle.

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {

/// The diagonal of a matrix as the smoothers read it: the position of each
/// row's diagonal entry inside values() (-1 where structurally absent). It
/// is a snapshot: the owner of a matrix whose pattern is frozen builds it
/// once (an AMG level at hierarchy setup) and passes it to every sweep.
struct SmootherDiagonal {
  std::vector<int> index;

  static SmootherDiagonal of(const CsrMatrix& a);

  /// Heap bytes retained (capacity, matching CsrMatrix::memory_bytes).
  std::size_t memory_bytes() const;
};

/// One forward Gauss-Seidel sweep (ascending row order).
void gauss_seidel_forward(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                          Vec& x);

/// One backward Gauss-Seidel sweep (descending row order).
void gauss_seidel_backward(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                           Vec& x);

/// Symmetric Gauss-Seidel: forward then backward sweep. This is the
/// smoother of the AMG K-cycle (symmetric, so the preconditioner stays SPD).
void symmetric_gauss_seidel(const CsrMatrix& a, const SmootherDiagonal& d,
                            const Vec& b, Vec& x);

}  // namespace irf::linalg
