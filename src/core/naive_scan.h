// Naive-Scan (Berndt & Clifford [4]; paper §3.1): sequential scan of the
// whole database, exact D_tw per sequence.
//
// Per the paper's §5.1 note, the implementation is "slightly modified" to
// use the L_inf time-warping distance, whose thresholded evaluation can
// abandon a sequence as soon as no cell of a DP row is within the
// tolerance (see dtw/dtw.h).

#ifndef WARPINDEX_CORE_NAIVE_SCAN_H_
#define WARPINDEX_CORE_NAIVE_SCAN_H_

#include "core/search_method.h"
#include "dtw/dtw.h"
#include "storage/sequence_store.h"

namespace warpindex {

class NaiveScan : public SearchMethod {
 public:
  // `store` must outlive this object.
  NaiveScan(const SequenceStore* store, DtwOptions dtw_options)
      : store_(store), dtw_(dtw_options) {}

  const char* name() const override { return "Naive-Scan"; }

 protected:
  SearchResult SearchImpl(const Sequence& query, double epsilon,
                          Trace* trace, DtwScratch* scratch) const override;

 private:
  const SequenceStore* store_;
  Dtw dtw_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_NAIVE_SCAN_H_
