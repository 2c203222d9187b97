#pragma once

/// \file simd.hpp
/// Portable SIMD kernel layer for the numerical hot path. The layer sits
/// UNDER irf::par: parallel_for/parallel_reduce split work into chunks and
/// each chunk body calls one of these range kernels, so thread-level and
/// lane-level parallelism compose without either knowing about the other.
///
/// Dispatch contract (see docs/PERFORMANCE.md "The irf::simd kernel layer"):
///
///  * Every kernel exists in up to three tiers — a baseline build (whatever
///    the project-wide flags target), an AVX2+FMA build, and an AVX-512
///    build — compiled from ONE generic source (kernels.inc) into separate
///    translation units. The active tier is picked once per process from
///    CPUID, so a single binary runs everywhere and still uses the widest
///    vectors the machine has.
///  * `IRF_SIMD=0` (env) or `set_enabled(false)` forces the baseline tier —
///    the scalar fallback path.
///  * Bit-identity: the kernels fix their floating-point accumulation
///    pattern in code (an 8-lane blocked pattern for dot), and every tier is
///    compiled with -ffp-contract=off, so results are bit-identical across
///    tiers AND with the fallback path. tests/test_simd.cpp pins this; the
///    solver suite re-runs under IRF_SIMD=0 to pin it end to end.
///
/// Sparse matrix-vector products are not kernels of this layer: they run
/// the CSR row loop in linalg::CsrMatrix::multiply.

#include <cstddef>
#include <cstdint>

namespace irf::simd {

/// Lane-block width of the blocked reductions (8 doubles = one AVX-512
/// register; narrower ISAs split the block across registers without changing
/// the accumulation pattern).
inline constexpr int kLanes = 8;

/// Instruction-set tier the dispatcher resolved to.
enum class IsaTier { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

/// Tier the active kernel table was built for (baseline when disabled).
IsaTier active_tier();

/// Widest tier this binary + CPU can run, independent of the enable gate.
IsaTier best_tier();

/// Human-readable tier name ("baseline" / "avx2" / "avx512").
const char* tier_name(IsaTier tier);

/// Kernel-layer gate. First call resolves IRF_SIMD (unset/""/"1" = on,
/// "0" = off, anything else warns and stays on); set_enabled() overrides at
/// runtime so one test process can compare both paths.
bool enabled();
void set_enabled(bool on);

// --- fp64 range kernels (dispatched to the active tier) -------------------

/// Blocked dot product over [0, n): lane l accumulates elements congruent to
/// l mod kLanes, partials folded in ascending lane order. The pattern — not
/// the ISA — defines the rounding, so every tier agrees bit-for-bit.
double dot(const double* a, const double* b, std::int64_t n);

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::int64_t n);

/// y[i] = x[i] + beta * y[i].
void xpby(const double* x, double beta, double* y, std::int64_t n);

/// a[i] *= alpha.
void scale(double* a, double alpha, std::int64_t n);

/// out[i] = a[i] - b[i].
void subtract(const double* a, const double* b, double* out, std::int64_t n);

namespace detail {

/// Per-tier function table; kernels.inc instantiates one per tier TU.
struct KernelTable {
  double (*dot)(const double*, const double*, std::int64_t) = nullptr;
  void (*axpy)(double, const double*, double*, std::int64_t) = nullptr;
  void (*xpby)(const double*, double, double*, std::int64_t) = nullptr;
  void (*scale)(double*, double, std::int64_t) = nullptr;
  void (*subtract)(const double*, const double*, double*, std::int64_t) = nullptr;
};

const KernelTable& baseline_table();
#if defined(IRF_SIMD_HAVE_AVX2)
const KernelTable& avx2_table();
#endif
#if defined(IRF_SIMD_HAVE_AVX512)
const KernelTable& avx512_table();
#endif

/// Table for the currently active tier (baseline when disabled).
const KernelTable& table();

}  // namespace detail

}  // namespace irf::simd
