// Tests for the irf::simd kernel layer: the bit-identity contract (the range
// kernels agree bit-for-bit with the scalar reference no matter which ISA
// tier runs or whether the gate is on) and the tier reporting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "simd/simd.hpp"

namespace irf::simd {
namespace {

using linalg::Vec;

/// Restores the process-global kernel gate on scope exit so one test's
/// set_enabled() can never leak into the rest of the suite.
class GateGuard {
 public:
  GateGuard() : was_(enabled()) {}
  ~GateGuard() { set_enabled(was_); }

 private:
  bool was_;
};

TEST(Simd, DotBitIdenticalWithGateOnAndOff) {
  GateGuard guard;
  Rng rng(47);
  for (std::int64_t n : {0, 1, 7, 8, 9, 1000, 4097}) {
    Vec a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
    for (double& v : a) v = rng.normal();
    for (double& v : b) v = rng.normal();
    set_enabled(true);
    const double d_on = linalg::dot(a, b);
    set_enabled(false);
    const double d_off = linalg::dot(a, b);
    EXPECT_EQ(0, std::memcmp(&d_on, &d_off, sizeof(double))) << "n=" << n;
  }
}

TEST(Simd, ElementwiseKernelsMatchScalarLoops) {
  GateGuard guard;
  set_enabled(true);
  Rng rng(53);
  const std::int64_t n = 1037;
  Vec a(n), b(n);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal();

  Vec y = b;
  axpy(0.37, a.data(), y.data(), n);
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(y[i], b[i] + 0.37 * a[i]);

  y = b;
  xpby(a.data(), -0.25, y.data(), n);
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(y[i], a[i] + -0.25 * b[i]);

  y = a;
  scale(y.data(), 3.0, n);
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(y[i], a[i] * 3.0);

  Vec out(n);
  subtract(a.data(), b.data(), out.data(), n);
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] - b[i]);
}

TEST(Simd, TierReportingFollowsGate) {
  GateGuard guard;
  set_enabled(false);
  EXPECT_EQ(active_tier(), IsaTier::kBaseline);
  set_enabled(true);
  EXPECT_EQ(active_tier(), best_tier());
  EXPECT_STRNE(tier_name(best_tier()), "");
}

}  // namespace
}  // namespace irf::simd
