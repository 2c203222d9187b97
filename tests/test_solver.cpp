// Tests for irf::solver: CG/PCG drivers, aggregation, AMG hierarchy, K-cycle
// and the AMG-PCG facade — including the convergence properties the paper's
// numerical stage relies on.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "pg/solve.hpp"
#include "solver/aggregation.hpp"
#include "solver/amg.hpp"
#include "solver/amg_pcg.hpp"
#include "solver/cg.hpp"

namespace irf::solver {
namespace {

using linalg::CsrMatrix;
using linalg::TripletBuilder;
using linalg::Vec;

/// 2-D 5-point Laplacian on an n x n grid, Dirichlet boundary (SPD) — the
/// discrete structure of a single-layer power grid.
CsrMatrix laplacian_2d(int n) {
  TripletBuilder b(n * n, n * n);
  auto id = [n](int y, int x) { return y * n + x; };
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      b.add(id(y, x), id(y, x), 4.0);
      if (x + 1 < n) {
        b.add(id(y, x), id(y, x + 1), -1.0);
        b.add(id(y, x + 1), id(y, x), -1.0);
      }
      if (y + 1 < n) {
        b.add(id(y, x), id(y + 1, x), -1.0);
        b.add(id(y + 1, x), id(y, x), -1.0);
      }
    }
  }
  return CsrMatrix::from_triplets(b);
}

Vec random_vec(int n, Rng& rng) {
  Vec v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.normal();
  return v;
}

TEST(Cg, SolvesSmallSpdSystem) {
  CsrMatrix a = laplacian_2d(6);
  Rng rng(1);
  Vec x_true = random_vec(a.rows(), rng);
  Vec b = a.multiply(x_true);
  SolveOptions opt;
  opt.rel_tolerance = 1e-12;
  SolveResult r = conjugate_gradient(a, b, opt);
  EXPECT_TRUE(r.converged);
  for (int i = 0; i < a.rows(); ++i) EXPECT_NEAR(r.x[i], x_true[i], 1e-8);
}

TEST(Cg, ZeroRhsIsZeroSolution) {
  CsrMatrix a = laplacian_2d(4);
  Vec b(static_cast<std::size_t>(a.rows()), 0.0);
  SolveResult r = conjugate_gradient(a, b);
  EXPECT_TRUE(r.converged);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, ResidualHistoryDecreasesOverall) {
  CsrMatrix a = laplacian_2d(8);
  Rng rng(2);
  Vec b = random_vec(a.rows(), rng);
  SolveOptions opt;
  opt.rel_tolerance = 1e-10;
  SolveResult r = conjugate_gradient(a, b, opt);
  ASSERT_GE(r.residual_history.size(), 2u);
  EXPECT_LT(r.residual_history.back(), r.residual_history.front());
}

TEST(Cg, RespectsIterationBudget) {
  CsrMatrix a = laplacian_2d(10);
  Rng rng(3);
  Vec b = random_vec(a.rows(), rng);
  SolveOptions opt;
  opt.max_iterations = 3;
  opt.rel_tolerance = 0.0;
  SolveResult r = conjugate_gradient(a, b, opt);
  EXPECT_EQ(r.iterations, 3);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.x.size(), static_cast<std::size_t>(a.rows()));
}

TEST(Cg, NonSpdThrows) {
  TripletBuilder tb(2, 2);
  tb.add(0, 0, -1.0);
  tb.add(1, 1, -1.0);
  CsrMatrix a = CsrMatrix::from_triplets(tb);
  Vec b{1.0, 1.0};
  EXPECT_THROW(conjugate_gradient(a, b), NumericError);
}

TEST(Pcg, JacobiPreconditionerHelpsScaledSystem) {
  // Badly scaled diagonal: plain CG struggles, Jacobi-PCG equilibrates.
  const int n = 50;
  TripletBuilder tb(n, n);
  for (int i = 0; i < n; ++i) {
    const double d = (i % 2 == 0) ? 1.0 : 1e4;
    tb.add(i, i, 2.0 * d);
    if (i + 1 < n) {
      tb.add(i, i + 1, -0.5);
      tb.add(i + 1, i, -0.5);
    }
  }
  CsrMatrix a = CsrMatrix::from_triplets(tb);
  Rng rng(4);
  Vec b = random_vec(n, rng);
  SolveOptions opt;
  opt.rel_tolerance = 1e-10;
  SolveResult plain = conjugate_gradient(a, b, opt);
  JacobiPreconditioner jacobi(a);
  SolveResult pre = preconditioned_cg(a, b, jacobi, opt);
  EXPECT_TRUE(pre.converged);
  EXPECT_LE(pre.iterations, plain.iterations);
}

TEST(Aggregation, CoversAllNodes) {
  CsrMatrix a = laplacian_2d(7);
  Aggregation agg = pairwise_aggregate(a);
  ASSERT_EQ(agg.aggregate_of.size(), static_cast<std::size_t>(a.rows()));
  std::vector<int> count(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (int g : agg.aggregate_of) {
    ASSERT_GE(g, 0);
    ASSERT_LT(g, agg.num_aggregates);
    ++count[static_cast<std::size_t>(g)];
  }
  for (int c : count) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 2);  // pairwise: aggregates of at most two nodes
  }
  EXPECT_LT(agg.num_aggregates, a.rows());
}

TEST(Aggregation, DoublePairwiseCoarsensHarder) {
  CsrMatrix a = laplacian_2d(8);
  Aggregation once = pairwise_aggregate(a);
  Aggregation twice = double_pairwise_aggregate(a);
  EXPECT_LT(twice.num_aggregates, once.num_aggregates);
  std::vector<int> count(static_cast<std::size_t>(twice.num_aggregates), 0);
  for (int g : twice.aggregate_of) ++count[static_cast<std::size_t>(g)];
  for (int c : count) EXPECT_LE(c, 4);  // at most 4 per coarse unknown
}

TEST(Aggregation, GalerkinPreservesSymmetryAndRowSums) {
  CsrMatrix a = laplacian_2d(6);
  Aggregation agg = double_pairwise_aggregate(a);
  CsrMatrix ac = galerkin_coarse_matrix(a, agg);
  EXPECT_EQ(ac.rows(), agg.num_aggregates);
  EXPECT_TRUE(ac.is_symmetric(1e-10));
  // Galerkin with piecewise-constant P preserves the total row sum.
  double fine_sum = 0.0, coarse_sum = 0.0;
  for (double s : a.row_sums()) fine_sum += s;
  for (double s : ac.row_sums()) coarse_sum += s;
  EXPECT_NEAR(fine_sum, coarse_sum, 1e-9);
}

TEST(Aggregation, RestrictProlongAdjoint) {
  // <P^T r, e> == <r, P e> for all r, e.
  CsrMatrix a = laplacian_2d(5);
  Aggregation agg = pairwise_aggregate(a);
  Rng rng(5);
  Vec r = random_vec(a.rows(), rng);
  Vec e = random_vec(agg.num_aggregates, rng);
  Vec rc;
  restrict_to_coarse(agg, r, rc);
  Vec pe(static_cast<std::size_t>(a.rows()), 0.0);
  prolongate_add(agg, e, pe);
  EXPECT_NEAR(linalg::dot(rc, e), linalg::dot(r, pe), 1e-10);
}

TEST(Amg, HierarchyShrinks) {
  // 1600 rows coarsen about 4x per level: at least 3 levels above the
  // 64-row floor.
  CsrMatrix a = laplacian_2d(40);
  AmgHierarchy amg(a);
  ASSERT_GE(amg.num_levels(), 3);
  for (int l = 1; l < amg.num_levels(); ++l) {
    EXPECT_LT(amg.level(l).matrix.rows(), amg.level(l - 1).matrix.rows());
    EXPECT_TRUE(amg.level(l).matrix.is_symmetric(1e-9));
  }
  EXPECT_LE(amg.level(amg.num_levels() - 1).matrix.rows(),
            4 * AmgHierarchy::options().coarsest_size);
  EXPECT_GE(amg.grid_complexity(), 1.0);
  EXPECT_LT(amg.grid_complexity(), 2.5);
  EXPECT_LT(amg.operator_complexity(), 3.0);
}

TEST(Amg, CycleReducesError) {
  CsrMatrix a = laplacian_2d(12);
  AmgHierarchy amg(a);
  Rng rng(6);
  Vec b = random_vec(a.rows(), rng);
  Vec z;
  amg.apply(b, z);
  // One cycle should reduce the residual substantially vs x = 0.
  Vec r = linalg::subtract(b, a.multiply(z));
  EXPECT_LT(linalg::norm2(r), 0.5 * linalg::norm2(b));
}

class AmgPcgGridSize : public ::testing::TestWithParam<int> {};

TEST_P(AmgPcgGridSize, ConvergesFastOnLaplacians) {
  const int n = GetParam();
  CsrMatrix a = laplacian_2d(n);
  Rng rng(7);
  Vec x_true = random_vec(a.rows(), rng);
  Vec b = a.multiply(x_true);
  AmgPcgSolver solver(a);
  SolveResult r = solver.solve_golden(b, 1e-10);
  EXPECT_TRUE(r.converged);
  // Mesh-independent-ish convergence: iteration count stays modest.
  EXPECT_LE(r.iterations, 30);
  for (int i = 0; i < a.rows(); ++i) EXPECT_NEAR(r.x[i], x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AmgPcgGridSize, ::testing::Values(8, 16, 24, 32));

TEST(AmgPcg, BeatsPlainCgOnIterations) {
  CsrMatrix a = laplacian_2d(24);
  Rng rng(8);
  Vec b = random_vec(a.rows(), rng);
  SolveOptions opt;
  opt.rel_tolerance = 1e-8;
  SolveResult plain = conjugate_gradient(a, b, opt);
  AmgPcgSolver solver(a);
  SolveResult amg = solver.solve(b, opt);
  EXPECT_TRUE(amg.converged);
  EXPECT_LT(amg.iterations, plain.iterations / 2);
}

TEST(AmgPcg, RoughSolutionImprovesWithIterations) {
  CsrMatrix a = laplacian_2d(16);
  Rng rng(9);
  Vec x_true = random_vec(a.rows(), rng);
  Vec b = a.multiply(x_true);
  AmgPcgSolver solver(a);
  double prev_err = 1e300;
  for (int k : {1, 2, 4, 8}) {
    SolveResult r = solver.solve_rough(b, k);
    EXPECT_EQ(r.iterations, k);
    double err = linalg::norm2(linalg::subtract(r.x, x_true));
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
}

TEST(AmgPcg, SetupTimeRecorded) {
  CsrMatrix a = laplacian_2d(12);
  AmgPcgSolver solver(a);
  EXPECT_GE(solver.setup_seconds(), 0.0);
  Vec b(static_cast<std::size_t>(a.rows()), 1.0);
  SolveResult r = solver.solve_rough(b, 2);
  EXPECT_GE(r.solve_seconds, 0.0);
  EXPECT_EQ(r.setup_seconds, solver.setup_seconds());
}

TEST(Amg, SmootherDiagonalsMatchEveryLevel) {
  // The smoothers read each level's diagonal position from the array built
  // once at setup; it must point at that level operator's diagonal entry.
  AmgHierarchy h(laplacian_2d(24));
  ASSERT_GT(h.num_levels(), 2);
  for (int l = 0; l < h.num_levels(); ++l) {
    const AmgLevel& level = h.level(l);
    const CsrMatrix& a = level.matrix;
    ASSERT_EQ(level.diagonal.index.size(), static_cast<std::size_t>(a.rows()));
    for (int r = 0; r < a.rows(); ++r) {
      const int k = level.diagonal.index[r];
      ASSERT_GE(k, 0) << "level " << l << " row " << r;
      EXPECT_EQ(a.col_idx()[k], r);
      EXPECT_EQ(a.values()[k], a.at(r, r)) << "level " << l << " row " << r;
    }
  }
}

TEST(Amg, MemoryBytesCountsSmootherDiagonals) {
  AmgHierarchy h(laplacian_2d(24));
  std::size_t without_diagonals = 0;
  std::size_t diagonals = 0;
  std::size_t rows = 0;
  for (int l = 0; l < h.num_levels(); ++l) {
    const AmgLevel& level = h.level(l);
    without_diagonals += level.matrix.memory_bytes();
    if (level.to_coarse) {
      without_diagonals += level.to_coarse->aggregate_of.capacity() * sizeof(int);
    }
    diagonals += level.diagonal.memory_bytes();
    rows += static_cast<std::size_t>(level.matrix.rows());
  }
  const auto coarse_n = static_cast<std::size_t>(h.coarse_solver().size());
  without_diagonals += coarse_n * coarse_n * sizeof(double);
  EXPECT_GE(diagonals, rows * sizeof(int));
  EXPECT_EQ(h.memory_bytes(), without_diagonals + diagonals);
}

TEST(Amg, PgSolverMemoryBytesCountsTheConductanceOnceOutsideTheHierarchy) {
  // The conductance matrix is moved into the AMG-PCG solver as its outer
  // operator: besides the hierarchy's finest level (which keeps the setup
  // values across a rebind) PgSolver holds it exactly once.
  Rng rng(31);
  pg::PgDesign d = pg::generate_fake_design(32, rng, "memory_bytes");
  pg::PgSolver solver(d);
  const pg::MnaSystem sys = pg::assemble_mna(d.netlist);
  const std::size_t maps = sys.rhs.capacity() * sizeof(double) +
                           sys.node_to_eq.capacity() * sizeof(int) +
                           sys.eq_to_node.capacity() * sizeof(spice::NodeId);
  const AmgPcgSolver& amg_pcg = solver.amg_pcg();
  EXPECT_EQ(amg_pcg.memory_bytes(),
            amg_pcg.matrix().memory_bytes() + amg_pcg.hierarchy().memory_bytes());
  EXPECT_EQ(solver.memory_bytes(), maps + amg_pcg.memory_bytes());
  EXPECT_EQ(amg_pcg.matrix().values(), sys.conductance.values());
  EXPECT_EQ(amg_pcg.hierarchy().level(0).matrix.values(), sys.conductance.values());

  // A rebind swaps the outer operator's values, leaves level 0 at the
  // setup values and keeps the accounting.
  pg::PgDesign edited = d;
  edited.netlist.set_resistor_ohms(0, d.netlist.resistors()[0].ohms * 1.5);
  solver.rebind(edited);
  const linalg::Vec edited_values = pg::assemble_mna(edited.netlist).conductance.values();
  ASSERT_NE(edited_values, sys.conductance.values());
  EXPECT_EQ(amg_pcg.matrix().values(), edited_values);
  EXPECT_EQ(amg_pcg.hierarchy().level(0).matrix.values(), sys.conductance.values());
  EXPECT_EQ(solver.memory_bytes(), maps + amg_pcg.memory_bytes());
}

TEST(AmgPcg, RebindConvergesAgainstNewValues) {
  // update_matrix_values swaps the outer operator's values under the frozen
  // hierarchy: a post-rebind solve must converge to x_true of the NEW
  // system, not of the setup one.
  CsrMatrix a = laplacian_2d(20);
  Rng rng(23);
  Vec x_true = random_vec(a.rows(), rng);
  AmgPcgSolver solver(a);
  SolveOptions opt;
  opt.rel_tolerance = 1e-10;
  (void)solver.solve(a.multiply(x_true), opt);

  // Same sparsity, scaled values: a valid rebind.
  CsrMatrix a2 = a;
  for (double& v : a2.mutable_values()) v *= 2.5;
  solver.update_matrix_values(a2);

  Vec b2 = a2.multiply(x_true);
  SolveResult r = solver.solve(b2, opt);
  EXPECT_TRUE(r.converged);
  for (int i = 0; i < a2.rows(); ++i) EXPECT_NEAR(r.x[i], x_true[i], 1e-6);
}

}  // namespace
}  // namespace irf::solver
