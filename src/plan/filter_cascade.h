// FilterCascade: an ordered pipeline of progressively tighter,
// progressively costlier DTW lower bounds, run over the index's candidate
// list before the exact-DTW post-filter.
//
// Stage contracts (the no-false-dismissal argument):
//
//   lb_yi        global-envelope bound (Yi et al.)
//   lb_keogh     per-position banded envelope bound (dtw/lb_keogh.h)
//   lb_improved  Lemire's two-pass refinement (dtw/lb_improved.h)
//   dtw          exact early-abandoning D_tw (always last, implicit)
//
// D_tw-lb (paper Def. 3) is not a stage: the feature index's range query
// already is the predicate D_tw-lb <= epsilon (core/tw_sim_search.h), so
// re-evaluating it over the index's candidates could never prune.
//
// Every lower-bound stage L satisfies L(S, Q) <= D_tw(S, Q) for the
// configured DtwOptions (each proved in its own header; all three base
// distances). A stage eliminates a candidate only when its bound already
// EXCEEDS epsilon — ties (bound == epsilon) are kept, matching
// Algorithm 1's `<= epsilon` acceptance — so every true match reaches
// the exact stage and the final answer set is bit-identical to running
// exact DTW on the unfiltered list, for every plan. Only the amount of
// DP work varies.
//
// Each stage records candidates-in / pruned into SearchCost::prunes and
// its elapsed time into SearchCost::stages (names shared with traces and
// metrics).

#ifndef WARPINDEX_PLAN_FILTER_CASCADE_H_
#define WARPINDEX_PLAN_FILTER_CASCADE_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/search_method.h"
#include "dtw/base_distance.h"
#include "dtw/dtw.h"
#include "obs/trace.h"
#include "sequence/sequence.h"

namespace warpindex {

// The lower-bound stages a plan may run, in canonical cheapest-to-
// tightest order. The exact-DTW stage is implicit and always last.
enum class CascadeStage {
  kLbYi,
  kLbKeogh,
  kLbImproved,
};

// Canonical stage name, shared across timings, prune counters, trace
// spans, and metrics (the kStage*Cascade constants).
std::string_view CascadeStageName(CascadeStage stage);

// An ordered subset of lower-bound stages to run before exact DTW.
struct CascadePlan {
  std::vector<CascadeStage> stages;

  // All three bounds in canonical order — the full cascade.
  static CascadePlan Full();
  // No lower-bound stage at all: the paper's Algorithm 1 (index filter
  // then exact DTW).
  static CascadePlan Paper() { return CascadePlan{}; }

  // "lb_yi_cascade > lb_keogh_cascade > dtw" (always ends in dtw).
  std::string ToString() const;
};

class FilterCascade {
 public:
  explicit FilterCascade(DtwOptions options) : dtw_(options) {}

  const DtwOptions& options() const { return dtw_.options(); }

  // Runs `plan`'s lower-bound stages and then the exact-DTW stage over
  // `candidates` (consumed). Matching ids append to result->matches in
  // candidate order; stage timings, prune counters, lb/dtw eval counts,
  // and DP cells accumulate into result->cost. `trace` and `scratch` are
  // optional.
  void Run(const Sequence& query, double epsilon,
           std::vector<Sequence> candidates, const CascadePlan& plan,
           SearchResult* result, Trace* trace, DtwScratch* scratch) const;

 private:
  Dtw dtw_;
};

}  // namespace warpindex

#endif  // WARPINDEX_PLAN_FILTER_CASCADE_H_
