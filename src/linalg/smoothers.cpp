#include "linalg/smoothers.hpp"

#include <string>

#include "common/error.hpp"

namespace irf::linalg {

namespace {
void check_sizes(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                 const Vec& x) {
  if (a.rows() != a.cols()) throw DimensionError("smoother needs square matrix");
  if (static_cast<int>(b.size()) != a.rows() || static_cast<int>(x.size()) != a.rows()) {
    throw DimensionError("smoother vector size mismatch");
  }
  if (static_cast<int>(d.index.size()) != a.rows()) {
    throw DimensionError("smoother diagonal size mismatch");
  }
}
}  // namespace

SmootherDiagonal SmootherDiagonal::of(const CsrMatrix& a) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  SmootherDiagonal d;
  d.index.assign(static_cast<std::size_t>(a.rows()), -1);
  for (int r = 0; r < a.rows(); ++r) {
    for (int k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] == r) {
        d.index[static_cast<std::size_t>(r)] = k;
        break;
      }
    }
  }
  return d;
}

std::size_t SmootherDiagonal::memory_bytes() const {
  return index.capacity() * sizeof(int);
}

namespace {
void gs_sweep(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b, Vec& x,
              bool forward) {
  check_sizes(a, d, b, x);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  const auto& di = d.index;
  const int n = a.rows();
  for (int step = 0; step < n; ++step) {
    const int i = forward ? step : n - 1 - step;
    // The diagonal position splits each row into two branch-free spans
    // around the diagonal entry; the subtraction order (ascending column,
    // diagonal skipped) is exactly the reference loop's.
    const int dk = di[i];
    if (dk < 0 || v[dk] == 0.0) {
      throw NumericError("gauss-seidel: zero diagonal at row " + std::to_string(i));
    }
    double s = b[i];
    for (int k = rp[i]; k < dk; ++k) s -= v[k] * x[ci[k]];
    for (int k = dk + 1; k < rp[i + 1]; ++k) s -= v[k] * x[ci[k]];
    x[i] = s / v[dk];
  }
}
}  // namespace

void gauss_seidel_forward(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                          Vec& x) {
  gs_sweep(a, d, b, x, /*forward=*/true);
}

void gauss_seidel_backward(const CsrMatrix& a, const SmootherDiagonal& d, const Vec& b,
                           Vec& x) {
  gs_sweep(a, d, b, x, /*forward=*/false);
}

void symmetric_gauss_seidel(const CsrMatrix& a, const SmootherDiagonal& d,
                            const Vec& b, Vec& x) {
  gs_sweep(a, d, b, x, /*forward=*/true);
  gs_sweep(a, d, b, x, /*forward=*/false);
}

}  // namespace irf::linalg
