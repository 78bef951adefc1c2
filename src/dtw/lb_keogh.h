// LB_Keogh: the banded-envelope lower bound of Keogh & Ratanamahatana,
// adapted to this library's three base-distance models and to
// variable-length sequences.
//
// For a query Q and a Sakoe-Chiba radius r, the envelope of Q is the pair
// of per-position sequences
//
//   U_j = max Q[k],  L_j = min Q[k]   for k in [j - r, j + r] cap [0, |Q|)
//
// computed in O(|Q|) with Lemire's streaming min/max (two monotonic
// index queues in preallocated arrays). Under the band
// constraint every candidate element S[i] must align with some Q[j] with
// |i - j| <= r, hence with a value inside [L_i, U_i]; the part of S
// sticking out of the envelope is unavoidable warping cost:
//
//   * sum-combined (L1/L2):  LB = sum_i cost(dist(S[i], [L_i, U_i]))
//   * max-combined (L_inf):  LB = max_i dist(S[i], [L_i, U_i])
//
// with cost() the configured step cost (|.| or (.)^2, sqrt on exit for
// the L2 convention), each provably <= the banded D_tw of the same
// DtwOptions — and therefore also <= the unconstrained D_tw whenever the
// envelope was built full-width (see kFullWidthRadius). Tightness: with a
// narrow band LB_Keogh is far tighter than LB_Yi (whose envelope is the
// single global [min, max] interval); with a full-width envelope it
// degenerates to LB_Yi's one-sided bound.
//
// Variable lengths: the DP widens the effective band to at least
// ||S| - |Q|| so a path exists (see EffectiveSakoeChibaRadius). The
// envelope carries suffix min/max arrays so candidate positions beyond
// |Q| still get the correct (right-clipped) window, and a bound request
// whose effective radius exceeds the envelope's build radius falls back
// to computing a correctly widened envelope — the returned value is a
// valid lower bound for every (envelope, pair) combination.

#ifndef WARPINDEX_DTW_LB_KEOGH_H_
#define WARPINDEX_DTW_LB_KEOGH_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "dtw/base_distance.h"
#include "sequence/sequence.h"

namespace warpindex {

// Radius value requesting a full-width envelope (window = the whole
// sequence at every position). The right choice when the DTW itself is
// unconstrained (DtwOptions::band < 0).
inline constexpr size_t kFullWidthRadius =
    std::numeric_limits<size_t>::max();

// The envelope radius matching `options`: the configured Sakoe-Chiba
// radius, or full-width when the DTW is unconstrained.
inline size_t EnvelopeRadiusFor(const DtwOptions& options) {
  return options.band < 0 ? kFullWidthRadius
                          : static_cast<size_t>(options.band);
}

// Per-position banded envelope of a sequence (usually the query, built
// once and reused across every candidate of that query).
struct BandEnvelope {
  // lower[j] / upper[j]: min / max over [j - radius, j + radius] clipped
  // to the sequence; size() entries each.
  std::vector<double> lower;
  std::vector<double> upper;
  // suffix_min[j] / suffix_max[j]: min / max over positions [j, size());
  // serves candidate positions beyond the sequence end, whose window is
  // right-clipped. Radius-independent.
  std::vector<double> suffix_min;
  std::vector<double> suffix_max;
  // The radius the lower/upper windows were built with (possibly
  // kFullWidthRadius).
  size_t radius = 0;

  size_t size() const { return lower.size(); }
};

// Builds the envelope of `s` with Sakoe-Chiba radius `radius` in O(|s|)
// (Lemire's streaming min/max). Requires a non-empty sequence.
BandEnvelope ComputeBandEnvelope(const Sequence& s, size_t radius);

// One-sided LB_Keogh: the cost forced onto the elements of `s` by the
// envelope of `q`. `q_env` must be ComputeBandEnvelope(q, r) for some r;
// when r is narrower than the pair's effective radius the function
// recomputes a correctly widened envelope, so the result lower-bounds
// Dtw(options).Distance(s, q) for every input. Returned in the same
// domain as Dtw::Distance (sqrt applied for the L2 convention).
double LbKeogh(const Sequence& s, const Sequence& q,
               const BandEnvelope& q_env, const DtwOptions& options);

namespace internal {

// ComputeBandEnvelope over s[0, m) into `env`, reusing the capacity of its
// vectors. Requires m > 0.
void BuildBandEnvelope(const double* s, size_t m, size_t radius,
                       BandEnvelope* env);

// Accumulated-domain (pre-sqrt) one-sided envelope bound with an explicit
// effective radius; `h_out` (optional) receives the projection of `s`
// onto the envelope (Lemire's h sequence, consumed by LB_Improved).
double OneSidedKeogh(const Sequence& s, const BandEnvelope& env,
                     size_t effective_radius, const DtwOptions& options,
                     std::vector<double>* h_out);

}  // namespace internal

}  // namespace warpindex

#endif  // WARPINDEX_DTW_LB_KEOGH_H_
