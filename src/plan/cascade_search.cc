#include "plan/cascade_search.h"

#include <utility>

#include "common/timer.h"

namespace warpindex {

SearchResult TwSimSearchCascade::SearchImpl(const Sequence& query,
                                            double epsilon, Trace* trace,
                                            DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  const CascadePlan plan = planner_.Choose();
  TraceCounter(trace, "cascade_stages",
               static_cast<double>(plan.stages.size()));
  std::vector<Sequence> fetched =
      base_->FilterAndFetch(query, epsilon, &result, trace);
  CascadeObservation obs;
  cascade_.Run(query, epsilon, std::move(fetched), plan, &result, trace,
               scratch, &obs);
  planner_.Observe(obs);
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
