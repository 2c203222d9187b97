#pragma once

/// \file amg.hpp
/// Aggregation-based algebraic multigrid hierarchy with V- and K-cycles
/// (Fig. 3 of the paper: Setup Stage / Preconditioning Phase). The hierarchy
/// implements Preconditioner so it can drive the flexible PCG in cg.hpp.

#include <memory>
#include <optional>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/smoothers.hpp"
#include "solver/aggregation.hpp"
#include "solver/preconditioner.hpp"

namespace irf::solver {

enum class CycleType { kV, kK };

/// Relaxation used for pre/post smoothing. Symmetric Gauss-Seidel (the
/// default) gives the strongest per-sweep damping but is inherently
/// sequential; damped Jacobi updates every row independently, so it is the
/// parallel-safe choice when the irf::par pool is wide (see
/// docs/PERFORMANCE.md).
enum class SmootherType { kSymmetricGaussSeidel, kJacobi };

struct AmgOptions {
  /// Stop coarsening when a level has at most this many unknowns.
  int coarsest_size = 64;
  /// Safety cap on hierarchy depth.
  int max_levels = 20;
  /// Pre/post smoothing sweeps.
  int pre_smooth = 1;
  int post_smooth = 1;
  SmootherType smoother = SmootherType::kSymmetricGaussSeidel;
  /// Damping factor for the Jacobi smoother (ignored for Gauss-Seidel).
  double jacobi_omega = 0.7;
  /// Strength-of-coupling threshold for pairwise aggregation.
  double strength_threshold = 0.25;
  /// Use double pairwise (aggregates up to 4) vs single pairwise (up to 2).
  bool double_pairwise = true;
  CycleType cycle = CycleType::kK;
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
  AmgHierarchy(const linalg::CsrMatrix& a, AmgOptions options = {});

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const AmgLevel& level(int i) const { return levels_.at(static_cast<std::size_t>(i)); }
  const AmgOptions& options() const { return options_; }

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
  bool is_variable() const override { return options_.cycle == CycleType::kK; }

 private:
  void smooth(const AmgLevel& level, const linalg::Vec& r, linalg::Vec& z, int sweeps);
  void cycle(int level, const linalg::Vec& r, linalg::Vec& z);
  void coarse_correction(int coarse_level, const linalg::Vec& rc, linalg::Vec& ec);
  /// Two flexible-CG steps on the coarse problem, preconditioned by the
  /// coarse cycle — the "K" in K-cycle.
  void kcycle_inner(int level, const linalg::Vec& rc, linalg::Vec& ec);

  AmgOptions options_;
  std::vector<AmgLevel> levels_;
  std::unique_ptr<linalg::CholeskyFactor> coarse_solver_;
};

}  // namespace irf::solver
