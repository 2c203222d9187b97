#pragma once

/// \file amg_pcg.hpp
/// The AMG-PCG facade — the "efficient numerical solver" of the paper
/// (PowerRush-style: aggregation AMG + K-cycle preconditioned CG). A solver
/// object performs the setup stage once and can then be asked for solutions
/// at different iteration budgets, which is exactly how IR-Fusion consumes
/// it (few iterations for rough features, many for golden labels).

#include <memory>

#include "linalg/csr.hpp"
#include "solver/amg.hpp"
#include "solver/cg.hpp"

namespace irf::solver {

class AmgPcgSolver {
 public:
  /// Runs the AMG setup stage on `a` and keeps `a` as the outer PCG
  /// operator. The hierarchy's finest level holds its own copy, which stays
  /// at the setup values across update_matrix_values().
  explicit AmgPcgSolver(linalg::CsrMatrix a);

  /// Solve A x = b under the given iteration/tolerance controls. `x0` is an
  /// optional warm start (PG analysis uses the flat supply voltage).
  SolveResult solve(const linalg::Vec& b, const SolveOptions& options = {},
                    const linalg::Vec* x0 = nullptr) const;

  /// Convenience: run exactly `iterations` PCG iterations (no tolerance
  /// stop) — the "rough solution" mode of Section III-B.
  SolveResult solve_rough(const linalg::Vec& b, int iterations,
                          const linalg::Vec* x0 = nullptr) const;

  /// Convenience: solve to a tight tolerance for golden labels.
  SolveResult solve_golden(const linalg::Vec& b, double rel_tolerance = 1e-10,
                           int max_iterations = 2000,
                           const linalg::Vec* x0 = nullptr) const;

  /// Warm start from a previous solution of a nearby system. Same as solve()
  /// but x0 is required — named so call sites read as what they are.
  SolveResult solve_warm(const linalg::Vec& b, const linalg::Vec& x0,
                         const SolveOptions& options) const;

  /// Swap in new matrix values while keeping the AMG hierarchy frozen — the
  /// incremental re-analysis path after bounded stamp edits. The flexible
  /// (K-cycle) PCG tolerates the now-approximate preconditioner; outer
  /// residuals are always measured against the NEW matrix. Throws
  /// NumericError when `a`'s sparsity pattern differs from the setup matrix,
  /// which is the guard against reusing a hierarchy across topology changes.
  void update_matrix_values(linalg::CsrMatrix a);

  /// The outer PCG operator: the setup matrix, or the last
  /// update_matrix_values() argument.
  const linalg::CsrMatrix& matrix() const { return matrix_; }
  const AmgHierarchy& hierarchy() const { return *hierarchy_; }
  double setup_seconds() const { return setup_seconds_; }

  /// Heap bytes retained by the outer operator and the AMG hierarchy.
  std::size_t memory_bytes() const;

 private:
  linalg::CsrMatrix matrix_;
  std::unique_ptr<AmgHierarchy> hierarchy_;
  double setup_seconds_ = 0.0;
};

}  // namespace irf::solver
