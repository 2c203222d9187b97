#pragma once

/// \file csr.hpp
/// Compressed sparse row matrix — the workhorse format for the MNA system
/// matrix G and every AMG level operator.

#include <vector>

#include "linalg/coo.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {

/// CSR matrix with sorted column indices per row and duplicates summed. A
/// plain value type: it holds the three CSR arrays and nothing derived from
/// them, so copies, moves and mutable_values() edits need no bookkeeping.
/// Owners that need derived per-row data (the smoothers' diagonal, see
/// linalg/smoothers.hpp) build it themselves, once, where they know the
/// values are frozen.
class CsrMatrix {
 public:
  /// Build from a triplet accumulator; duplicate entries are summed and
  /// exact zeros produced by cancellation are kept (harmless, rare).
  static CsrMatrix from_triplets(const TripletBuilder& builder);

  /// Convenience: identity matrix of size n.
  static CsrMatrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Mutable access to the value payload (warm-start rebind swaps new
  /// conductances under a frozen sparsity).
  std::vector<double>& mutable_values() { return values_; }

  /// y = A x: the CSR row loop, rows split across the irf::par pool. Each
  /// row sums its entries in column order, so the result is bit-identical
  /// for any IRF_THREADS.
  void multiply(const Vec& x, Vec& y) const;
  Vec multiply(const Vec& x) const;

  /// Entry lookup by binary search (test/debug helper, O(log nnz_row)).
  double at(int row, int col) const;

  /// Main diagonal (missing entries read as 0).
  Vec diagonal() const;

  /// Sum of each row (Laplacian rows with no ground hookup sum to ~0).
  Vec row_sums() const;

  /// Structural + numerical symmetry within `tol` (relative to max |value|).
  bool is_symmetric(double tol = 1e-12) const;

  /// Weak diagonal dominance check: |a_ii| >= sum_{j!=i} |a_ij| - tol.
  bool is_diagonally_dominant(double tol = 1e-9) const;

  /// A^T as a new matrix.
  CsrMatrix transposed() const;

  /// Heap bytes retained by the index/value arrays (capacity, not size, so
  /// cache byte budgets see what the allocator actually holds).
  std::size_t memory_bytes() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_;   // size rows_+1
  std::vector<int> col_idx_;   // size nnz
  std::vector<double> values_; // size nnz
};

}  // namespace irf::linalg
