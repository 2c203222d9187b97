#include "solver/aggregation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace irf::solver {

using linalg::CsrMatrix;
using linalg::Vec;

namespace {
/// Strength-of-coupling threshold (beta in the literature).
constexpr double kStrengthThreshold = 0.25;
}  // namespace

Aggregation pairwise_aggregate(const CsrMatrix& a) {
  if (a.rows() != a.cols()) throw DimensionError("aggregation needs a square matrix");
  const int n = a.rows();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();

  Aggregation agg;
  agg.aggregate_of.assign(static_cast<std::size_t>(n), -1);

  // Visit nodes in order of increasing degree so weakly connected nodes get
  // first pick of their (few) strong neighbours.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return (rp[x + 1] - rp[x]) < (rp[y + 1] - rp[y]);
  });

  int next = 0;
  for (int idx = 0; idx < n; ++idx) {
    const int i = order[idx];
    if (agg.aggregate_of[i] >= 0) continue;
    // Strongest negative coupling from i to an unaggregated neighbour.
    double strongest = 0.0;
    for (int k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] != i) strongest = std::max(strongest, -v[k]);
    }
    int best = -1;
    double best_val = 0.0;
    for (int k = rp[i]; k < rp[i + 1]; ++k) {
      const int j = ci[k];
      if (j == i || agg.aggregate_of[j] >= 0) continue;
      const double coupling = -v[k];
      if (coupling <= 0.0) continue;
      if (coupling < kStrengthThreshold * strongest) continue;
      if (coupling > best_val) {
        best_val = coupling;
        best = j;
      }
    }
    agg.aggregate_of[i] = next;
    if (best >= 0) agg.aggregate_of[best] = next;
    ++next;
  }
  agg.num_aggregates = next;
  return agg;
}

namespace {
Aggregation compose(const Aggregation& first, const Aggregation& second) {
  Aggregation out;
  out.aggregate_of.resize(first.aggregate_of.size());
  for (std::size_t i = 0; i < first.aggregate_of.size(); ++i) {
    out.aggregate_of[i] = second.aggregate_of[first.aggregate_of[i]];
  }
  out.num_aggregates = second.num_aggregates;
  return out;
}
}  // namespace

Aggregation double_pairwise_aggregate(const CsrMatrix& a) {
  Aggregation first = pairwise_aggregate(a);
  if (first.num_aggregates == a.rows()) return first;  // no coarsening possible
  CsrMatrix mid = galerkin_coarse_matrix(a, first);
  Aggregation second = pairwise_aggregate(mid);
  return compose(first, second);
}

CsrMatrix galerkin_coarse_matrix(const CsrMatrix& a, const Aggregation& agg) {
  if (static_cast<int>(agg.aggregate_of.size()) != a.rows()) {
    throw DimensionError("aggregation size does not match matrix");
  }
  linalg::TripletBuilder b(agg.num_aggregates, agg.num_aggregates);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  for (int i = 0; i < a.rows(); ++i) {
    const int ic = agg.aggregate_of[i];
    for (int k = rp[i]; k < rp[i + 1]; ++k) {
      b.add(ic, agg.aggregate_of[ci[k]], v[k]);
    }
  }
  return CsrMatrix::from_triplets(b);
}

void restrict_to_coarse(const Aggregation& agg, const Vec& fine, Vec& coarse) {
  if (fine.size() != agg.aggregate_of.size()) {
    throw DimensionError("restrict: fine vector size mismatch");
  }
  coarse.assign(static_cast<std::size_t>(agg.num_aggregates), 0.0);
  for (std::size_t i = 0; i < fine.size(); ++i) coarse[agg.aggregate_of[i]] += fine[i];
}

void prolongate_add(const Aggregation& agg, const Vec& coarse, Vec& fine) {
  if (fine.size() != agg.aggregate_of.size()) {
    throw DimensionError("prolongate: fine vector size mismatch");
  }
  if (coarse.size() != static_cast<std::size_t>(agg.num_aggregates)) {
    throw DimensionError("prolongate: coarse vector size mismatch");
  }
  for (std::size_t i = 0; i < fine.size(); ++i) fine[i] += coarse[agg.aggregate_of[i]];
}

}  // namespace irf::solver
