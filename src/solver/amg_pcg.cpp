#include "solver/amg_pcg.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::solver {

AmgPcgSolver::AmgPcgSolver(linalg::CsrMatrix a) : matrix_(std::move(a)) {
  obs::ScopedSpan span("amg_setup", "solver");
  hierarchy_ = std::make_unique<AmgHierarchy>(matrix_);
  span.add_arg("rows", matrix_.rows());
  span.add_arg("levels", hierarchy_->num_levels());
  setup_seconds_ = span.seconds();
}

SolveResult AmgPcgSolver::solve(const linalg::Vec& b, const SolveOptions& options,
                                const linalg::Vec* x0) const {
  SolveResult result = preconditioned_cg(matrix_, b, *hierarchy_, options, x0);
  result.setup_seconds = setup_seconds_;
  return result;
}

SolveResult AmgPcgSolver::solve_rough(const linalg::Vec& b, int iterations,
                                      const linalg::Vec* x0) const {
  SolveOptions options;
  options.max_iterations = iterations;
  options.rel_tolerance = 0.0;  // never stop early: iteration count is the contract
  return solve(b, options, x0);
}

std::size_t AmgPcgSolver::memory_bytes() const {
  return matrix_.memory_bytes() + hierarchy_->memory_bytes();
}

SolveResult AmgPcgSolver::solve_golden(const linalg::Vec& b, double rel_tolerance,
                                       int max_iterations, const linalg::Vec* x0) const {
  SolveOptions options;
  options.max_iterations = max_iterations;
  options.rel_tolerance = rel_tolerance;
  return solve(b, options, x0);
}

SolveResult AmgPcgSolver::solve_warm(const linalg::Vec& b, const linalg::Vec& x0,
                                     const SolveOptions& options) const {
  return solve(b, options, &x0);
}

void AmgPcgSolver::update_matrix_values(linalg::CsrMatrix a) {
  // Hierarchy reuse guard: the frozen preconditioner is only meaningful when
  // the new operator lives on the same sparsity pattern the setup stage saw.
  if (a.rows() != matrix_.rows() || a.cols() != matrix_.cols() ||
      a.row_ptr() != matrix_.row_ptr() || a.col_idx() != matrix_.col_idx()) {
    throw NumericError(
        "update_matrix_values: sparsity pattern differs from the setup matrix; "
        "the AMG hierarchy cannot be reused (rebuild the solver)");
  }
  // Only the outer PCG operator changes; the hierarchy (with its own copy of
  // the setup matrix and the smoothers' diagonals) stays frozen.
  matrix_ = std::move(a);
  obs::count("solver.hierarchy_reuses");
}

}  // namespace irf::solver
