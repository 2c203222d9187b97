// Micro-benchmarks of the numerical kernels (google-benchmark): SpMV,
// Gauss-Seidel sweeps, AMG setup, K-cycle application and rough solves.

#include <benchmark/benchmark.h>

#include <map>

#include "common/rng.hpp"
#include "linalg/smoothers.hpp"
#include "obs/obs.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "solver/amg_pcg.hpp"

namespace {

using namespace irf;

const pg::MnaSystem& system_for(int px) {
  static std::map<int, pg::MnaSystem> cache;
  auto it = cache.find(px);
  if (it == cache.end()) {
    Rng rng(2000 + px);
    pg::PgDesign design = pg::generate_fake_design(px, rng, "micro");
    it = cache.emplace(px, pg::assemble_mna(design.netlist)).first;
  }
  return it->second;
}

void BM_SpMV(benchmark::State& state) {
  const pg::MnaSystem& sys = system_for(static_cast<int>(state.range(0)));
  linalg::Vec x(static_cast<std::size_t>(sys.conductance.rows()), 1.0);
  linalg::Vec y;
  for (auto _ : state) {
    sys.conductance.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.conductance.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(32)->Arg(64);

void BM_SymmetricGaussSeidel(benchmark::State& state) {
  const pg::MnaSystem& sys = system_for(static_cast<int>(state.range(0)));
  const linalg::SmootherDiagonal diag = linalg::SmootherDiagonal::of(sys.conductance);
  linalg::Vec x(static_cast<std::size_t>(sys.conductance.rows()), 0.0);
  for (auto _ : state) {
    linalg::symmetric_gauss_seidel(sys.conductance, diag, sys.rhs, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SymmetricGaussSeidel)->Arg(32)->Arg(64);

void BM_AmgSetup(benchmark::State& state) {
  const pg::MnaSystem& sys = system_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    solver::AmgHierarchy amg(sys.conductance);
    benchmark::DoNotOptimize(amg.num_levels());
  }
}
BENCHMARK(BM_AmgSetup)->Arg(32)->Arg(64);

void BM_KCycleApply(benchmark::State& state) {
  const pg::MnaSystem& sys = system_for(static_cast<int>(state.range(0)));
  solver::AmgHierarchy amg(sys.conductance);
  linalg::Vec z;
  for (auto _ : state) {
    amg.apply(sys.rhs, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_KCycleApply)->Arg(32)->Arg(64);

void BM_RoughSolve(benchmark::State& state) {
  const pg::MnaSystem& sys = system_for(64);
  solver::AmgPcgSolver solver(sys.conductance);
  const int iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    solver::SolveResult r = solver.solve_rough(sys.rhs, iters);
    benchmark::DoNotOptimize(r.x.data());
  }
}
BENCHMARK(BM_RoughSolve)->Arg(1)->Arg(3)->Arg(10);

}  // namespace

// Expanded BENCHMARK_MAIN() so the run leaves a BENCH_*.json metrics
// artifact next to google-benchmark's own report (see obs/obs.hpp).
int main(int argc, char** argv) {
  irf::obs::enable_bench_metrics("bench_solver_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
