// Solver explorer: compares plain CG, Jacobi-PCG and AMG-PCG (K-cycle) on
// the same power grid and prints the AMG-PCG residual history — a look
// inside Fig. 3's "Setup / Preconditioning / CG" pipeline.
//
// Usage: solver_explorer [image_px]   (default 48)

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "common/rng.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "solver/amg_pcg.hpp"
#include "solver/cg.hpp"

int main(int argc, char** argv) {
  using namespace irf;
  try {
    const int px = argc > 1 ? std::atoi(argv[1]) : 48;
    Rng rng(7);
    pg::PgDesign design = pg::generate_real_design(px, rng, "explorer");
    pg::MnaSystem sys = pg::assemble_mna(design.netlist);
    std::cout << "PG system: " << sys.conductance.rows() << " unknowns, "
              << sys.conductance.nnz() << " nonzeros\n\n";

    solver::SolveOptions opt;
    opt.rel_tolerance = 1e-8;
    opt.max_iterations = 20000;

    solver::SolveResult cg = solver::conjugate_gradient(sys.conductance, sys.rhs, opt);
    std::cout << "plain CG      : " << std::setw(6) << cg.iterations << " iterations, "
              << std::fixed << std::setprecision(4) << cg.solve_seconds << " s\n";

    solver::JacobiPreconditioner jacobi(sys.conductance);
    solver::SolveResult jac =
        solver::preconditioned_cg(sys.conductance, sys.rhs, jacobi, opt);
    std::cout << "Jacobi-PCG    : " << std::setw(6) << jac.iterations << " iterations, "
              << jac.solve_seconds << " s\n";

    solver::AmgPcgSolver amg(sys.conductance);
    solver::SolveResult r = amg.solve(sys.rhs, opt);
    std::cout << "AMG-PCG (K)   : " << std::setw(6) << r.iterations << " iterations, "
              << r.solve_seconds << " s solve + " << amg.setup_seconds() << " s setup, "
              << amg.hierarchy().num_levels() << " levels, op.cx " << std::setprecision(2)
              << amg.hierarchy().operator_complexity() << "\n";
    std::cout << "\nK-cycle residual history (||r||_2):\n  ";
    for (std::size_t i = 0; i < r.residual_history.size(); ++i) {
      std::cout << std::scientific << std::setprecision(2) << r.residual_history[i]
                << (i + 1 < r.residual_history.size() ? " -> " : "\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "solver_explorer failed: " << e.what() << "\n";
    return 1;
  }
}
