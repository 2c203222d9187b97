#pragma once

/// \file aggregation.hpp
/// Pairwise aggregation coarsening for aggregation-based AMG (the scheme
/// behind PowerRush's solver). Nodes are greedily paired along their
/// strongest negative coupling; applying the pass twice yields aggregates of
/// up to four nodes per coarse unknown.

#include <vector>

#include "linalg/csr.hpp"

namespace irf::solver {

/// Result of one aggregation pass: `aggregate_of[i]` maps each fine node to
/// its coarse index in [0, num_aggregates).
struct Aggregation {
  std::vector<int> aggregate_of;
  int num_aggregates = 0;
};

/// Single pairwise pass. Only strong couplings, a_ij <= -beta * max_k(-a_ik)
/// with the strength threshold beta = 0.25, are pairing candidates.
Aggregation pairwise_aggregate(const linalg::CsrMatrix& a);

/// Two pairwise passes composed (aggregates of size <= 4), as used by
/// aggregation-based AMG codes for mesh-like matrices.
Aggregation double_pairwise_aggregate(const linalg::CsrMatrix& a);

/// Galerkin coarse operator A_c = P^T A P for the piecewise-constant
/// prolongation P induced by the aggregation.
linalg::CsrMatrix galerkin_coarse_matrix(const linalg::CsrMatrix& a,
                                         const Aggregation& agg);

/// Restriction r_c = P^T r (sum within each aggregate).
void restrict_to_coarse(const Aggregation& agg, const linalg::Vec& fine, linalg::Vec& coarse);

/// Prolongation x_f += P x_c (inject the aggregate value into each member).
void prolongate_add(const Aggregation& agg, const linalg::Vec& coarse, linalg::Vec& fine);

}  // namespace irf::solver
