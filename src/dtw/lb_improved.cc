#include "dtw/lb_improved.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dtw/dtw.h"

namespace warpindex {

double LbImproved(const Sequence& s, const Sequence& q,
                  const BandEnvelope& q_env, const DtwOptions& options,
                  LbImprovedScratch* scratch) {
  assert(!s.empty() && !q.empty());
  const size_t radius =
      EffectiveSakoeChibaRadius(options, s.size(), q.size());

  LbImprovedScratch local;
  LbImprovedScratch& buf = scratch != nullptr ? *scratch : local;
  double part1;
  if (q_env.radius >= radius) {
    part1 = internal::OneSidedKeogh(s, q_env, radius, options, &buf.h);
  } else {
    const BandEnvelope widened = ComputeBandEnvelope(q, radius);
    part1 = internal::OneSidedKeogh(s, widened, radius, options, &buf.h);
  }

  internal::BuildBandEnvelope(buf.h.data(), buf.h.size(), radius, &buf.h_env);
  const double part2 =
      internal::OneSidedKeogh(q, buf.h_env, radius, options, nullptr);

  const double acc = options.combiner == DtwCombiner::kSum
                         ? part1 + part2
                         : std::max(part1, part2);
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

}  // namespace warpindex
