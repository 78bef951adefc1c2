#include "dtw/dtw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

namespace warpindex {
namespace {

inline double Combine(double cost, double upstream, DtwCombiner combiner) {
  return combiner == DtwCombiner::kSum ? cost + upstream
                                       : std::max(cost, upstream);
}

// Combine and ElementCost with the model fixed at compile time, so the
// pruned loop carries no per-cell branch on it.
template <DtwCombiner kCombiner, StepCost kStep>
inline double Relax(double a, double b, double best) {
  return Combine(ElementCost(a, b, kStep), best, kCombiner);
}

// Continues row `si` rightwards from column `j` with the left predecessor
// only: every column past the previous row's live interval has dead upper
// and diagonal predecessors. `left` is the live value of column j - 1.
// Stops at the first dead cell and returns the last live column. Row
// slots are offset by one (column c lives at row[c + 1]).
template <DtwCombiner kCombiner, StepCost kStep>
size_t ExtendRight(double si, const double* q, size_t j, size_t j_hi,
                   double threshold, double left, double* row,
                   uint64_t* cells) {
  for (; j <= j_hi; ++j) {
    left = Relax<kCombiner, kStep>(si, q[j],
                                   std::min(kInfiniteDistance, left));
    row[j + 1] = left;
    ++*cells;
    if (left > threshold) {
      return j - 1;
    }
  }
  return j_hi;
}

// The pruned, thresholded rolling DP (PrunedDTW / EAPrunedDTW style). A
// cell is dead iff its value is > threshold. [lo, hi] is the live column
// interval of the previous row; row i scans
//
//   [max(j_lo, lo), min(hi + 1, j_hi)]  with all three predecessors
//                                       (prev column hi + 1 is a sentinel
//                                       ∞, prev column start - 1 and curr
//                                       column start - 1 are dead);
//   (hi + 1, j_hi]                      with the left predecessor only,
//                                       stopping at the first dead cell;
//
// and abandons when a row has no live cell. Exact: costs are
// non-negative and both combiners are monotone, so a cell that ends
// <= threshold takes its min from a live predecessor and a dead one can
// never set it; live cells get bit-identical values to the full DP.
//
// `prev` / `curr` hold m + 2 slots each: slot 0 is the ∞ column left of
// column 0, slot m + 1 the sentinel past the last column. Nothing else is
// initialised; every slot read was written earlier in the same call. The
// left predecessor stays in a register, off the store-load path.
template <DtwCombiner kCombiner, StepCost kStep>
DtwResult PrunedRollingDp(const double* s, size_t n, const double* q,
                          size_t m, size_t band, double threshold,
                          double* prev, double* curr) {
  DtwResult result;
  // Row 0: the base cell, then left predecessors only.
  curr[0] = kInfiniteDistance;
  const double base = Relax<kCombiner, kStep>(s[0], q[0], 0.0);
  curr[1] = base;
  result.cells = 1;
  if (base > threshold) {
    result.distance = kInfiniteDistance;
    return result;
  }
  size_t lo = 0;
  size_t hi =
      ExtendRight<kCombiner, kStep>(s[0], q, 1, std::min(m - 1, band),
                                    threshold, base, curr, &result.cells);

  for (size_t i = 1; i < n; ++i) {
    std::swap(prev, curr);
    const size_t j_lo = i >= band ? i - band : 0;
    const size_t j_hi = std::min(m - 1, i + band);
    const size_t start = std::max(j_lo, lo);
    const size_t end = std::min(hi + 1, j_hi);
    if (start > end) {
      result.distance = kInfiniteDistance;  // band left the live interval
      return result;
    }
    prev[hi + 2] = kInfiniteDistance;  // previous row's column hi + 1
    curr[start] = kInfiniteDistance;   // this row's column start - 1
    const double si = s[i];
    double left = kInfiniteDistance;
    size_t row_lo = m;  // m = no live cell yet
    size_t row_hi = 0;
    for (size_t j = start; j <= end; ++j) {
      // Same min order as DistanceWithPath: upper, diagonal, left.
      double best = std::min(kInfiniteDistance, prev[j + 1]);
      best = std::min(best, prev[j]);
      best = std::min(best, left);
      left = Relax<kCombiner, kStep>(si, q[j], best);
      curr[j + 1] = left;
      const bool live = !(left > threshold);
      row_hi = live ? j : row_hi;
      row_lo = live && row_lo == m ? j : row_lo;
    }
    result.cells += end - start + 1;
    if (row_lo == m) {
      result.distance = kInfiniteDistance;  // every path already exceeds
      return result;
    }
    if (row_hi == end && end < j_hi) {
      row_hi = ExtendRight<kCombiner, kStep>(si, q, end + 1, j_hi, threshold,
                                             left, curr, &result.cells);
    }
    lo = row_lo;
    hi = row_hi;
  }
  result.distance = hi == m - 1 ? curr[m] : kInfiniteDistance;
  return result;
}

// The largest accumulated value whose sqrt is <= `epsilon`. epsilon^2
// rounds, so sqrt(epsilon * epsilon) may land on either side of epsilon;
// step to the exact boundary so a distance tying epsilon is kept and none
// above it is. sqrt is correctly rounded and monotone, hence one or two
// steps at most.
double SquaredThreshold(double epsilon) {
  double t = epsilon * epsilon;
  if (!std::isfinite(t)) {
    return t;
  }
  while (t > 0.0 && std::sqrt(t) > epsilon) {
    t = std::nextafter(t, 0.0);
  }
  for (double up = std::nextafter(t, kInfiniteDistance);
       std::sqrt(up) <= epsilon; up = std::nextafter(t, kInfiniteDistance)) {
    t = up;
  }
  return t;
}

using RollingKernel = DtwResult (*)(const double*, size_t, const double*,
                                    size_t, size_t, double, double*, double*);

RollingKernel PickKernel(DtwCombiner combiner, StepCost step) {
  if (combiner == DtwCombiner::kMax) {
    return step == StepCost::kAbsolute
               ? &PrunedRollingDp<DtwCombiner::kMax, StepCost::kAbsolute>
               : &PrunedRollingDp<DtwCombiner::kMax, StepCost::kSquared>;
  }
  return step == StepCost::kAbsolute
             ? &PrunedRollingDp<DtwCombiner::kSum, StepCost::kAbsolute>
             : &PrunedRollingDp<DtwCombiner::kSum, StepCost::kSquared>;
}

}  // namespace

size_t EffectiveSakoeChibaRadius(const DtwOptions& options, size_t n,
                                 size_t m) {
  if (options.band < 0) {
    return std::max(n, m);  // unconstrained
  }
  const size_t min_needed = n > m ? n - m : m - n;
  return std::max(static_cast<size_t>(options.band), min_needed);
}

DtwResult Dtw::ComputeRolling(const Sequence& s_in, const Sequence& q_in,
                              double threshold,
                              DtwScratch* scratch) const {
  // D_tw is symmetric; keep the shorter sequence on the columns to bound
  // rolling-array memory by min(|S|, |Q|).
  const Sequence& s = s_in.size() >= q_in.size() ? s_in : q_in;
  const Sequence& q = s_in.size() >= q_in.size() ? q_in : s_in;

  DtwResult result;
  if (s.empty() && q.empty()) {
    result.distance = 0.0;
    return result;
  }
  if (s.empty() || q.empty()) {
    result.distance = kInfiniteDistance;
    return result;
  }

  const size_t n = s.size();
  const size_t m = q.size();
  const size_t band = EffectiveSakoeChibaRadius(options_, n, m);
  // Work in the accumulated domain; take_sqrt is applied on exit, so the
  // threshold must be squared-domain too.
  const double internal_threshold =
      options_.take_sqrt ? SquaredThreshold(threshold) : threshold;

  // With a scratch, resize() reuses the retained capacity; the local
  // vectors stay empty and cost nothing. The kernel initialises what it
  // reads, so no row is ever filled.
  std::vector<double> local_prev;
  std::vector<double> local_curr;
  std::vector<double>& prev = scratch != nullptr ? scratch->prev_ : local_prev;
  std::vector<double>& curr = scratch != nullptr ? scratch->curr_ : local_curr;
  prev.resize(m + 2);
  curr.resize(m + 2);

  result = PickKernel(options_.combiner, options_.step)(
      s.data(), n, q.data(), m, band, internal_threshold, prev.data(),
      curr.data());
  if (options_.take_sqrt && result.distance != kInfiniteDistance) {
    result.distance = std::sqrt(result.distance);
  }
  return result;
}

DtwResult Dtw::Distance(const Sequence& s, const Sequence& q,
                        DtwScratch* scratch) const {
  return ComputeRolling(s, q, kInfiniteDistance, scratch);
}

DtwResult Dtw::DistanceWithThreshold(const Sequence& s, const Sequence& q,
                                     double epsilon,
                                     DtwScratch* scratch) const {
  assert(epsilon >= 0.0);
  return ComputeRolling(s, q, epsilon, scratch);
}

DtwPathResult Dtw::DistanceWithPath(const Sequence& s,
                                    const Sequence& q) const {
  DtwPathResult result;
  if (s.empty() && q.empty()) {
    result.distance = 0.0;
    return result;
  }
  if (s.empty() || q.empty()) {
    result.distance = kInfiniteDistance;
    return result;
  }

  const size_t n = s.size();
  const size_t m = q.size();
  const size_t band = EffectiveSakoeChibaRadius(options_, n, m);
  std::vector<double> dp(n * m, kInfiniteDistance);
  auto at = [&](size_t i, size_t j) -> double& { return dp[i * m + j]; };

  for (size_t i = 0; i < n; ++i) {
    const size_t j_lo = i >= band ? i - band : 0;
    const size_t j_hi = std::min(m - 1, i + band);
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = ElementCost(s[i], q[j], options_.step);
      ++result.cells;
      if (i == 0 && j == 0) {
        at(i, j) = cost;
        continue;
      }
      double best = kInfiniteDistance;
      if (i > 0) {
        best = std::min(best, at(i - 1, j));
        if (j > 0) best = std::min(best, at(i - 1, j - 1));
      }
      if (j > 0) {
        best = std::min(best, at(i, j - 1));
      }
      if (std::isinf(best)) {
        continue;  // unreachable inside band edge cases
      }
      at(i, j) = Combine(cost, best, options_.combiner);
    }
  }

  double final_value = at(n - 1, m - 1);
  result.distance = options_.take_sqrt && !std::isinf(final_value)
                        ? std::sqrt(final_value)
                        : final_value;
  if (std::isinf(final_value)) {
    return result;  // no feasible path (cannot happen with valid band)
  }

  // Backtrack: from (n-1, m-1), repeatedly move to the reachable
  // predecessor with the smallest DP value. For both combiners the DP value
  // of the chosen predecessor reconstructs an optimal path.
  std::vector<WarpingStep> reversed;
  size_t i = n - 1;
  size_t j = m - 1;
  reversed.push_back({i, j});
  while (i > 0 || j > 0) {
    double best = kInfiniteDistance;
    size_t bi = i;
    size_t bj = j;
    if (i > 0 && j > 0 && at(i - 1, j - 1) <= best) {
      best = at(i - 1, j - 1);
      bi = i - 1;
      bj = j - 1;
    }
    if (i > 0 && at(i - 1, j) < best) {
      best = at(i - 1, j);
      bi = i - 1;
      bj = j;
    }
    if (j > 0 && at(i, j - 1) < best) {
      best = at(i, j - 1);
      bi = i;
      bj = j - 1;
    }
    i = bi;
    j = bj;
    reversed.push_back({i, j});
  }
  std::reverse(reversed.begin(), reversed.end());
  result.path = WarpingPath(std::move(reversed));
  return result;
}

}  // namespace warpindex
