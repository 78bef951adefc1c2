#include "dtw/lb_keogh.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dtw/dtw.h"

namespace warpindex {
namespace {

inline double DistToInterval(double v, double lo, double hi) {
  if (v < lo) return lo - v;
  if (v > hi) return v - hi;
  return 0.0;
}

}  // namespace

BandEnvelope ComputeBandEnvelope(const Sequence& s, size_t radius) {
  assert(!s.empty());
  BandEnvelope env;
  internal::BuildBandEnvelope(s.data(), s.size(), radius, &env);
  return env;
}

namespace internal {

void BuildBandEnvelope(const double* s, size_t m, size_t radius,
                       BandEnvelope* env) {
  assert(m > 0);
  // Clamp the working radius: any radius >= m already yields full-width
  // windows at every position (and avoids j + radius overflow).
  const size_t r = std::min(radius, m);
  env->radius = radius;
  env->lower.resize(m);
  env->upper.resize(m);

  // Lemire's streaming min/max over the advancing right window edge:
  // max_idx[max_head, max_tail) keeps indices of strictly decreasing
  // values, min_idx[min_head, min_tail) strictly increasing, so the window
  // extreme is always at the head. Each index is pushed at most once, so
  // an m-slot array per queue serves as its deque without wrapping.
  std::vector<size_t> max_idx(m);
  std::vector<size_t> min_idx(m);
  size_t max_head = 0;
  size_t max_tail = 0;
  size_t min_head = 0;
  size_t min_tail = 0;
  size_t next = 0;  // next position to admit into the queues
  for (size_t j = 0; j < m; ++j) {
    const size_t win_hi = std::min(m - 1, j + r);
    for (; next <= win_hi; ++next) {
      const double v = s[next];
      while (max_tail > max_head && s[max_idx[max_tail - 1]] <= v) {
        --max_tail;
      }
      max_idx[max_tail++] = next;
      while (min_tail > min_head && s[min_idx[min_tail - 1]] >= v) {
        --min_tail;
      }
      min_idx[min_tail++] = next;
    }
    const size_t win_lo = j >= r ? j - r : 0;
    while (max_idx[max_head] < win_lo) {
      ++max_head;
    }
    while (min_idx[min_head] < win_lo) {
      ++min_head;
    }
    env->upper[j] = s[max_idx[max_head]];
    env->lower[j] = s[min_idx[min_head]];
  }

  env->suffix_min.resize(m);
  env->suffix_max.resize(m);
  double lo = s[m - 1];
  double hi = s[m - 1];
  for (size_t j = m; j-- > 0;) {
    lo = std::min(lo, s[j]);
    hi = std::max(hi, s[j]);
    env->suffix_min[j] = lo;
    env->suffix_max[j] = hi;
  }
}

double OneSidedKeogh(const Sequence& s, const BandEnvelope& env,
                     size_t effective_radius, const DtwOptions& options,
                     std::vector<double>* h_out) {
  const size_t n = s.size();
  const size_t m = env.size();
  assert(n > 0 && m > 0);
  assert(env.radius >= effective_radius);
  if (h_out != nullptr) {
    h_out->resize(n);
  }
  const bool sum = options.combiner == DtwCombiner::kSum;
  const bool squared = options.step == StepCost::kSquared;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double lo;
    double hi;
    if (i < m) {
      lo = env.lower[i];
      hi = env.upper[i];
    } else {
      // Beyond the envelope's end the window is right-clipped to
      // [i - R, m - 1]; i - R <= m - 1 because R >= n - m.
      const size_t from =
          i >= effective_radius
              ? std::min(i - effective_radius, m - 1)
              : 0;
      lo = env.suffix_min[from];
      hi = env.suffix_max[from];
    }
    const double v = s[i];
    const double d = DistToInterval(v, lo, hi);
    if (h_out != nullptr) {
      (*h_out)[i] = v < lo ? lo : (v > hi ? hi : v);
    }
    const double cost = squared ? d * d : d;
    acc = sum ? acc + cost : std::max(acc, cost);
  }
  return acc;
}

}  // namespace internal

double LbKeogh(const Sequence& s, const Sequence& q,
               const BandEnvelope& q_env, const DtwOptions& options) {
  assert(!s.empty() && !q.empty());
  const size_t radius =
      EffectiveSakoeChibaRadius(options, s.size(), q.size());
  double acc;
  if (q_env.radius >= radius) {
    // A wider-than-required envelope stays a valid (if looser) bound.
    acc = internal::OneSidedKeogh(s, q_env, radius, options, nullptr);
  } else {
    // The pair's length mismatch widened the effective radius past the
    // envelope's build radius; recompute so the windows admit every
    // alignment the DP admits (correctness over speed — rare path).
    const BandEnvelope widened = ComputeBandEnvelope(q, radius);
    acc = internal::OneSidedKeogh(s, widened, radius, options, nullptr);
  }
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

}  // namespace warpindex
