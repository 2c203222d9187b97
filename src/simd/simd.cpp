#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace irf::simd {

namespace {

IsaTier probe_best_tier() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
#if defined(IRF_SIMD_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512bw")) {
    return IsaTier::kAvx512;
  }
#endif
#if defined(IRF_SIMD_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaTier::kAvx2;
  }
#endif
#endif
  return IsaTier::kBaseline;
}

// Enable gate: -1 unresolved, 0 off, 1 on. Resolved once from IRF_SIMD
// (unset/""/"1" = on, "0" = off, anything else warns and stays on — the same
// warn-and-default contract IRF_THREADS follows); set_enabled() overrides.
std::atomic<int> g_enabled{-1};
std::once_flag g_env_once;

void resolve_env() {
  const char* raw = std::getenv("IRF_SIMD");
  bool on = true;
  if (raw != nullptr && *raw != '\0' && std::strcmp(raw, "1") != 0) {
    if (std::strcmp(raw, "0") == 0) {
      on = false;
    } else {
      obs::info() << "IRF_SIMD='" << raw << "' is not 0 or 1; keeping SIMD on";
    }
  }
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on ? 1 : 0);
}

void publish_tier_gauge() {
  obs::set_gauge("simd.tier", static_cast<double>(static_cast<int>(active_tier())));
}

}  // namespace

IsaTier best_tier() {
  static const IsaTier tier = probe_best_tier();
  return tier;
}

bool enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    std::call_once(g_env_once, resolve_env);
    state = g_enabled.load(std::memory_order_relaxed);
    publish_tier_gauge();
  }
  return state == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  publish_tier_gauge();
}

IsaTier active_tier() {
  return enabled() ? best_tier() : IsaTier::kBaseline;
}

const char* tier_name(IsaTier tier) {
  switch (tier) {
    case IsaTier::kAvx512:
      return "avx512";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kBaseline:
      return "baseline";
  }
  return "baseline";
}

namespace detail {

const KernelTable& table() {
  switch (active_tier()) {
#if defined(IRF_SIMD_HAVE_AVX512)
    case IsaTier::kAvx512:
      return avx512_table();
#endif
#if defined(IRF_SIMD_HAVE_AVX2)
    case IsaTier::kAvx2:
      return avx2_table();
#endif
    default:
      return baseline_table();
  }
}

}  // namespace detail

// Public wrappers: one indirect call per range, never per element.

double dot(const double* a, const double* b, std::int64_t n) {
  return detail::table().dot(a, b, n);
}
void axpy(double alpha, const double* x, double* y, std::int64_t n) {
  detail::table().axpy(alpha, x, y, n);
}
void xpby(const double* x, double beta, double* y, std::int64_t n) {
  detail::table().xpby(x, beta, y, n);
}
void scale(double* a, double alpha, std::int64_t n) {
  detail::table().scale(a, alpha, n);
}
void subtract(const double* a, const double* b, double* out, std::int64_t n) {
  detail::table().subtract(a, b, out, n);
}

}  // namespace irf::simd
