// Tests for the baseline preconditioners and the warm-start behaviour of the
// CG drivers on power-grid systems.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "pg/solve.hpp"
#include "solver/cg.hpp"

namespace irf::solver {
namespace {

TEST(WarmStart, PcgInitialGuessRespected) {
  Rng rng(33);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "warm");
  pg::MnaSystem sys = pg::assemble_mna(design.netlist);
  // Cold start: first residual is ||b||; warm start at vdd: much smaller.
  SolveOptions opt;
  opt.max_iterations = 0;
  opt.rel_tolerance = 0.0;
  SolveResult cold = conjugate_gradient(sys.conductance, sys.rhs, opt);
  linalg::Vec x0(sys.rhs.size(), design.vdd);
  SolveResult warm = conjugate_gradient(sys.conductance, sys.rhs, opt, &x0);
  ASSERT_FALSE(cold.residual_history.empty());
  ASSERT_FALSE(warm.residual_history.empty());
  EXPECT_LT(warm.residual_history.front(), 0.1 * cold.residual_history.front());
}

TEST(WarmStart, RoughSolutionErrorIsIrScale) {
  Rng rng(34);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "warm2");
  pg::PgSolver solver(design);
  pg::PgSolution golden = solver.solve_golden();
  pg::PgSolution rough = solver.solve_rough(1);
  double max_err = 0.0;
  for (std::size_t i = 0; i < golden.ir_drop.size(); ++i) {
    max_err = std::max(max_err, std::abs(rough.ir_drop[i] - golden.ir_drop[i]));
  }
  // One warm-started AMG-PCG iteration already lands within the IR-drop
  // scale (millivolts), not the rail scale (volts).
  EXPECT_LT(max_err, 5e-3);
}

}  // namespace
}  // namespace irf::solver
