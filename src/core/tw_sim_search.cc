#include "core/tw_sim_search.h"

#include <utility>

#include "common/timer.h"
#include "sequence/feature.h"

namespace warpindex {

std::vector<Sequence> TwSimSearch::FilterAndFetch(const Sequence& query,
                                                  double epsilon,
                                                  SearchResult* result,
                                                  Trace* trace) const {
  // Step-1: feature extraction.
  const FeatureVector query_feature = ExtractFeature(query);

  // Step-2/3: range query on the multi-dimensional index.
  RTreeQueryStats rstats;
  std::vector<NodeId> accessed;
  if (index_pool_ != nullptr) {
    rstats.accessed_nodes = &accessed;
  }
  std::vector<SequenceId> candidates;
  {
    StageTimer stage(&result->cost.stages, &result->cost.stages_cpu, trace, kStageRtreeSearch);
    candidates = index_->RangeQuery(query_feature, epsilon, &rstats, trace);
    result->cost.index_nodes = rstats.nodes_accessed;
    if (index_pool_ != nullptr) {
      // Only pool misses reach the disk (each R-tree node is one page).
      for (const NodeId id : accessed) {
        if (index_pool_->Access(id, &result->cost.io, trace)) {
          ++result->cost.pool_hits;
        } else {
          ++result->cost.pool_misses;
        }
      }
    } else {
      result->cost.io.RecordRandomRead(rstats.nodes_accessed);
    }
  }
  result->num_candidates = candidates.size();

  // Step-5: read the candidate sequences from the store.
  std::vector<Sequence> fetched;
  {
    StageTimer stage(&result->cost.stages, &result->cost.stages_cpu, trace, kStageCandidateFetch);
    fetched.reserve(candidates.size());
    for (const SequenceId id : candidates) {
      fetched.push_back(store_->Fetch(id, &result->cost.io, trace));
    }
  }
  return fetched;
}

SearchResult TwSimSearch::SearchImpl(const Sequence& query, double epsilon,
                                     Trace* trace,
                                     DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  cascade_.Run(query, epsilon, FilterAndFetch(query, epsilon, &result, trace),
               plan_, &result, trace, scratch);
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
