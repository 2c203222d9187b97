#include "solver/preconditioner.hpp"

#include "common/error.hpp"

namespace irf::solver {

void IdentityPreconditioner::apply(const linalg::Vec& r, linalg::Vec& z) { z = r; }

JacobiPreconditioner::JacobiPreconditioner(const linalg::CsrMatrix& a) {
  inv_diag_ = a.diagonal();
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
    if (inv_diag_[i] == 0.0) {
      throw NumericError("Jacobi preconditioner: zero diagonal at row " +
                         std::to_string(i));
    }
    inv_diag_[i] = 1.0 / inv_diag_[i];
  }
}

void JacobiPreconditioner::apply(const linalg::Vec& r, linalg::Vec& z) {
  if (r.size() != inv_diag_.size()) {
    throw DimensionError("Jacobi preconditioner size mismatch");
  }
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = inv_diag_[i] * r[i];
}

}  // namespace irf::solver
