// TW-Sim-Search: the paper's query processing algorithm (Algorithm 1).
//
//   Step-1  extract Feature(Q);
//   Step-2  square range query of radius epsilon on the 4-d feature index;
//   Step-3  candidate set := returned ids;
//   Step-4..7  for each candidate, read the sequence from the store and
//              keep it iff D_tw(S, Q) <= epsilon.
//
// Guarantees: no false dismissal (Theorem 1 + Corollary 1); the index
// range predicate equals "D_tw-lb <= epsilon", and D_tw-lb lower-bounds
// D_tw.
//
// Between Step-5 and Step-6 an optional fixed CascadePlan of cheaper
// lower bounds (plan/filter_cascade.h) discards candidates no match can
// be among; the answers are unchanged, only exact-DTW work drops. The
// engine builds one instance with the empty plan (kTwSimSearch, the
// paper verbatim) and one with EngineOptions::cascade_plan
// (kTwSimSearchCascade).

#ifndef WARPINDEX_CORE_TW_SIM_SEARCH_H_
#define WARPINDEX_CORE_TW_SIM_SEARCH_H_

#include <utility>
#include <vector>

#include "core/feature_index.h"
#include "core/search_method.h"
#include "dtw/dtw.h"
#include "plan/filter_cascade.h"
#include "storage/buffer_pool.h"
#include "storage/sequence_store.h"

namespace warpindex {

class TwSimSearch : public SearchMethod {
 public:
  // `index` and `store` must outlive this object. `index_pool` (optional,
  // borrowed) caches index pages across queries: hot pages (the root and
  // upper levels) stop paying random reads. The pool is itself
  // thread-safe (lock-striped shards, see storage/buffer_pool.h), so
  // Search stays safe to call from many threads even with a pool —
  // per-query hit/miss attribution lands in SearchCost, not on shared
  // counters.
  //
  // `plan` names the lower-bound stages run before exact DTW; the empty
  // plan is Algorithm 1 verbatim.
  TwSimSearch(const FeatureIndex* index, const SequenceStore* store,
              DtwOptions dtw_options,
              const BufferPool* index_pool = nullptr,
              CascadePlan plan = CascadePlan::Paper())
      : index_(index), store_(store), cascade_(dtw_options),
        index_pool_(index_pool), plan_(std::move(plan)) {}

  const char* name() const override {
    return plan_.stages.empty() ? "TW-Sim-Search" : "TW-Sim-Search-Cascade";
  }

 protected:
  SearchResult SearchImpl(const Sequence& query, double epsilon,
                          Trace* trace, DtwScratch* scratch) const override;

 private:
  // Algorithm 1 Steps 1-5 on their own: feature extraction, index range
  // query, and candidate fetch, with I/O and node costs accounted into
  // `result` (stages rtree_search + candidate_fetch). Returns the fetched
  // candidate sequences in index-return order.
  std::vector<Sequence> FilterAndFetch(const Sequence& query,
                                       double epsilon, SearchResult* result,
                                       Trace* trace) const;

  const FeatureIndex* index_;
  const SequenceStore* store_;
  FilterCascade cascade_;
  const BufferPool* index_pool_;
  CascadePlan plan_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_TW_SIM_SEARCH_H_
