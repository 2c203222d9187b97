// Roofline-style kernel benchmark for the solver's hot loops. Times the CSR
// SpMV (CsrMatrix::multiply) and the irf::simd fp64 range kernels (dot,
// axpy, xpby), the latter with the SIMD dispatch off (scalar
// fallback tier) and on (widest ISA tier), recording seconds/rep, GF/s and
// bytes/rep so the numbers can be placed against the machine's roofline.
//
// Writes BENCH_kernel_roofline.json. It carries no speed bar: the numbers
// are for reading against the roofline, not a gate.
//
// The SpMV system is in-cache on purpose: the AMG levels below the finest
// are exactly in this regime, while out-of-cache SpMV is bound by memory
// bandwidth.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "obs/json.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "simd/simd.hpp"

namespace {

using namespace irf;

struct KernelEntry {
  std::string name;
  std::string layout;  // "csr" (SpMV), or the dispatch state "scalar" / "simd"
  int reps = 1;
  double seconds_per_rep = 0.0;
  double flops_per_rep = 0.0;
  double bytes_per_rep = 0.0;

  double gflops() const { return flops_per_rep / seconds_per_rep / 1e9; }
  double gbytes_per_s() const { return bytes_per_rep / seconds_per_rep / 1e9; }
};

/// Best-of-`reps` wall time for one call of `fn` (best-of filters scheduler
/// noise better than the mean on a loaded machine).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    sw.reset();
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

struct Sizes {
  int spmv_px = 64;  // in-cache SpMV system (L2-resident)
  std::int64_t vec_n = 1 << 16;
  int reps = 10;
  int spmv_inner = 200;
  int vec_inner = 200;
};

void run_vector_kernels(const Sizes& sz, bool simd_on, std::vector<KernelEntry>& out) {
  simd::set_enabled(simd_on);
  const char* layout = simd_on ? "simd" : "scalar";
  const std::int64_t n = sz.vec_n;
  Rng rng(7);
  linalg::Vec a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  const double dn = static_cast<double>(n);

  {
    volatile double sink = 0.0;
    const double s = best_of(sz.reps, [&] {
      for (int i = 0; i < sz.vec_inner; ++i) sink = sink + linalg::dot(a, b);
    });
    out.push_back({"dot", layout, sz.reps, s / sz.vec_inner, 2 * dn, 16 * dn});
  }
  {
    const double s = best_of(sz.reps, [&] {
      for (int i = 0; i < sz.vec_inner; ++i) linalg::axpy(1e-9, a, b);
    });
    out.push_back({"axpy", layout, sz.reps, s / sz.vec_inner, 2 * dn, 24 * dn});
  }
  {
    const double s = best_of(sz.reps, [&] {
      for (int i = 0; i < sz.vec_inner; ++i) linalg::xpby(a, 0.5, b);
    });
    out.push_back({"xpby", layout, sz.reps, s / sz.vec_inner, 2 * dn, 24 * dn});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Sizes sz;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sz = Sizes{64, 1 << 14, 8, 100, 50};
    } else {
      std::cerr << "usage: bench_kernel_roofline [--quick]\n";
      return 1;
    }
  }

  std::vector<KernelEntry> entries;

  // --- SpMV: the CSR row loop ---------------------------------------------
  Rng rng(4000 + sz.spmv_px);
  pg::PgDesign design = pg::generate_fake_design(sz.spmv_px, rng, "roofline");
  pg::MnaSystem sys = pg::assemble_mna(design.netlist);
  const linalg::CsrMatrix& m = sys.conductance;
  const double nnz = static_cast<double>(m.nnz());
  const double nrows = static_cast<double>(m.rows());

  linalg::Vec x(static_cast<std::size_t>(m.rows()), 1.0);
  {
    Rng xr(11);
    for (auto& v : x) v = 1.0 + 0.01 * xr.normal();
  }
  linalg::Vec y;
  m.multiply(x, y);  // size y once, outside the timed rounds
  const double spmv_s = best_of(sz.reps, [&] {
                          for (int i = 0; i < sz.spmv_inner; ++i) m.multiply(x, y);
                        }) /
                        sz.spmv_inner;
  // values + col_idx per entry, row_ptr, and x read + y written per row.
  const double csr_bytes = 12 * nnz + 4 * (nrows + 1) + 16 * nrows;
  entries.push_back({"spmv", "csr", sz.reps, spmv_s, 2 * nnz, csr_bytes});

  // --- Vector kernels, both dispatch states -------------------------------
  run_vector_kernels(sz, /*simd_on=*/false, entries);
  run_vector_kernels(sz, /*simd_on=*/true, entries);
  simd::set_enabled(true);

  // --- Artifact + report ---------------------------------------------------
  {
    std::ofstream f("BENCH_kernel_roofline.json");
    f << "{\n  \"bench\": \"kernel_roofline\",\n";
    f << "  \"isa_tier\": \"" << obs::json_escape(simd::tier_name(simd::best_tier()))
      << "\",\n";
    f << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const KernelEntry& e = entries[i];
      f << "    {\"name\": \"" << obs::json_escape(e.name) << "\", \"layout\": \""
        << obs::json_escape(e.layout) << "\", \"reps\": " << e.reps
        << ", \"seconds_per_rep\": " << obs::json_number(e.seconds_per_rep)
        << ", \"gflops\": " << obs::json_number(e.gflops())
        << ", \"bytes_per_rep\": " << obs::json_number(e.bytes_per_rep)
        << ", \"gbytes_per_second\": " << obs::json_number(e.gbytes_per_s()) << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
  }

  std::cout << "isa tier: " << simd::tier_name(simd::best_tier()) << "\n";
  std::cout << "kernel          layout    seconds/rep      GF/s      GB/s\n";
  for (const KernelEntry& e : entries) {
    std::printf("%-15s %-8s %12.3e %9.2f %9.2f\n", e.name.c_str(), e.layout.c_str(),
                e.seconds_per_rep, e.gflops(), e.gbytes_per_s());
  }
  std::cout << "wrote BENCH_kernel_roofline.json\n";
  return 0;
}
