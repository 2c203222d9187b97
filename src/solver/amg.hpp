#pragma once

/// \file amg.hpp
/// Aggregation-based algebraic multigrid hierarchy with a K-cycle (Fig. 3 of
/// the paper: Setup Stage / Preconditioning Phase). The hierarchy implements
/// Preconditioner so it can drive the flexible PCG in cg.hpp.

#include <memory>
#include <optional>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/smoothers.hpp"
#include "solver/aggregation.hpp"
#include "solver/preconditioner.hpp"

namespace irf::solver {

/// The one AMG configuration (PowerRush-style): double pairwise aggregation
/// down to a dense coarsest level, symmetric Gauss-Seidel smoothing and the
/// K-cycle. The values are constants of amg.cpp; AmgHierarchy::options()
/// exposes them so cost models can read the sweep counts.
struct AmgConfig {
  /// Stop coarsening when a level has at most this many unknowns.
  int coarsest_size;
  /// Safety cap on hierarchy depth.
  int max_levels;
  /// Symmetric Gauss-Seidel pre/post smoothing sweeps.
  int pre_smooth;
  int post_smooth;
};

/// One level of the hierarchy. The finest level owns no aggregation-from-
/// above; the coarsest level owns a dense Cholesky factorization.
struct AmgLevel {
  linalg::CsrMatrix matrix;
  /// Aggregation mapping *this* level to the next coarser one (absent on the
  /// coarsest level).
  std::optional<Aggregation> to_coarse;
  /// The smoothers' view of `matrix`'s diagonal, built once at setup: level
  /// operators are frozen for the hierarchy's lifetime (a rebind swaps only
  /// the outer PCG operator's values, see AmgPcgSolver).
  linalg::SmootherDiagonal diagonal;
};

/// The AMG hierarchy / K-cycle preconditioner.
class AmgHierarchy final : public Preconditioner {
 public:
  /// Setup stage: recursively coarsen `a` (which is copied into level 0).
  explicit AmgHierarchy(const linalg::CsrMatrix& a);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const AmgLevel& level(int i) const { return levels_.at(static_cast<std::size_t>(i)); }
  /// The fixed configuration every hierarchy is built with.
  static const AmgConfig& options();

  /// Dense Cholesky factorization of the coarsest operator.
  const linalg::CholeskyFactor& coarse_solver() const { return *coarse_solver_; }

  /// Grid complexity: sum of unknowns across levels / fine unknowns.
  double grid_complexity() const;
  /// Operator complexity: sum of nnz across levels / fine nnz.
  double operator_complexity() const;
  /// Heap bytes retained by all level operators, their smoother diagonals,
  /// aggregation maps, and the coarse Cholesky factor — what a cache keeping
  /// this hierarchy alive pays.
  std::size_t memory_bytes() const;

  /// Apply one cycle as the preconditioner: z ~= A^{-1} r.
  void apply(const linalg::Vec& r, linalg::Vec& z) override;

  /// K-cycle uses inner Krylov acceleration, so the operator is variable.
  bool is_variable() const override { return true; }

 private:
  void cycle(int level, const linalg::Vec& r, linalg::Vec& z);
  /// Two flexible-CG steps on the coarse problem, preconditioned by the
  /// coarse cycle — the "K" in K-cycle.
  void kcycle_inner(int level, const linalg::Vec& rc, linalg::Vec& ec);

  std::vector<AmgLevel> levels_;
  std::unique_ptr<linalg::CholeskyFactor> coarse_solver_;
};

}  // namespace irf::solver
