#pragma once

/// \file solve_result.hpp
/// Options/result types shared by every iterative solver in the repository.

#include <vector>

#include "linalg/vector_ops.hpp"

namespace irf::solver {

/// Iteration control for CG/PCG/AMG-PCG.
struct SolveOptions {
  int max_iterations = 1000;
  /// Stop when ||r|| / ||b|| falls below this.
  double rel_tolerance = 1e-10;
  /// Record ||r|| after every iteration (cheap; always useful for Fig. 7).
  bool track_residual_history = true;
};

/// Outcome of an iterative solve. `x` is valid even when not converged —
/// IR-Fusion deliberately consumes unconverged "rough" solutions.
struct SolveResult {
  linalg::Vec x;
  int iterations = 0;
  bool converged = false;
  double final_relative_residual = 0.0;
  std::vector<double> residual_history;  ///< ||r||_2 per iteration, entry 0 = initial
  /// Phase timings, sourced from the irf::obs spans that instrument the
  /// solver ("amg_setup" / "pcg_solve") so the numbers here always agree
  /// with the exported trace and metrics (see obs/trace.hpp).
  double setup_seconds = 0.0;  ///< preconditioner setup (AMG hierarchy)
  double solve_seconds = 0.0;  ///< iteration time
};

}  // namespace irf::solver
