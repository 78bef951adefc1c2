// FanOut: one query scattered over the base shards of a partitioned
// database and gathered into one exact answer — the in-process fan-out
// core that ShardedEngine and IngestEngine both run (docs/SHARDING.md,
// "The fan-out core").
//
// It owns everything the two engines share:
//
//   * The visited set. A range query skips a shard whose feature MBR is
//     strictly farther than epsilon from the query's feature point
//     (L_inf MINDIST): every sequence S of the shard then has
//     D_tw-lb(S, Q) > epsilon, hence D_tw(S, Q) > epsilon — Theorem 1
//     lifted to the shard's MBR (shard/partitioner.h). Ties at epsilon
//     keep the shard. kNN has no epsilon up front and skips only empty
//     shards; the SharedKnnBound prunes the rest mid-flight.
//
//   * Tracing. One "scatter_gather" span on the caller's trace with
//     shard_fanout / shards_skipped counters, a zero-length
//     "shard_skipped" marker per skipped shard, and one child Trace per
//     visited shard (thread-tagged, root span "shard" with shard_index)
//     stitched back with Adopt in shard order after the barrier, so the
//     tree shape does not depend on pool scheduling.
//
//   * Cost. Per-shard costs fold with MergeParallel (work summed, wall
//     time the critical path). The answer's wall_ms is measured end to
//     end from the FanOut's construction; its cpu_ms adds the calling
//     thread's own CPU minus the window it spent running shard tasks,
//     whose CPU the per-shard costs already hold.
//
//   * The merge: shard-local ids remapped to global ids, base rows on
//     the caller's dead-id list dropped, the caller's extra matches
//     added, then ascending global id (range) or (distance, id) order
//     truncated to k (kNN) — the canonical orders a single Engine's
//     answer is compared in.
//
// The caller supplies what differs through FanOutHooks: a delta scan and
// its matches, per-shard tombstones and the kNN per-shard k they force,
// per-shard flight records and counters.

#ifndef WARPINDEX_SHARD_FAN_OUT_H_
#define WARPINDEX_SHARD_FAN_OUT_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "shard/shard_view.h"

namespace warpindex {

// What one caller's fan-out adds to the shared core. Every member is
// optional; a default FanOutHooks is a plain read-only sharded query.
struct FanOutHooks {
  // Extra counters recorded on the scatter_gather span.
  std::vector<std::pair<const char*, double>> labels;
  // Per shard (aligned with the shard list), sorted global ids whose
  // base rows must not answer — tombstones. Empty, or a null entry,
  // means nothing is dead.
  std::vector<const std::vector<SequenceId>*> dead;
  // Range only: whether shard s has work beyond its base engine, which
  // keeps it visited when its MBR prunes the base.
  std::function<bool(size_t)> has_extra;
  // Range only: shard s's matches from outside its base engine (global
  // ids, never dead-filtered), run on the shard's task after the base
  // search and recorded under its "shard" span.
  std::function<SearchResult(size_t, Trace*, DtwScratch*)> extra_range;
  // kNN only: neighbors to ask of shard s's base engine (default k).
  std::function<size_t(size_t)> base_k;
  // On the shard's task after its searches; `base` is its range answer
  // (null for kNN or a pruned base). Runs concurrently across shards.
  std::function<void(size_t, const SearchResult* base)> on_visit;
  // On the calling thread, once per skipped shard, before the fan-out.
  std::function<void(size_t)> on_skip;
};

class FanOut {
 public:
  // Starts the query's wall and thread-CPU clocks, so construct it
  // first: caller work before the fan-out (an epoch snapshot, a delta
  // pre-scan) then counts toward the answer's wall_ms and cpu_ms.
  // `pool` (may be null: shards run inline) and `trace` (may be null)
  // are borrowed for the FanOut's lifetime.
  FanOut(ThreadPool* pool, Trace* trace) : pool_(pool), trace_(trace) {}

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  // Range query of `kind` over the unpruned shards.
  SearchResult Range(const std::vector<BaseShard>& shards, MethodKind kind,
                     const Sequence& query, double epsilon,
                     const FanOutHooks& hooks);

  // Exact kNN over the non-empty shards, every base pruning against
  // `bound` (which a cache seed or the caller's own scan may already
  // have tightened). `extra` carries neighbors found outside the bases
  // (global ids) with their refine count and cost; they join the merge.
  KnnResult Knn(const std::vector<BaseShard>& shards, const Sequence& query,
                size_t k, SharedKnnBound* bound, KnnResult extra,
                const FanOutHooks& hooks);

 private:
  using Task = std::function<void(size_t i, size_t shard, Trace* sub)>;

  // Marks every shard not in `visit` skipped, then runs task(i, visit[i],
  // sub) for each visited shard over the pool inside the scatter_gather
  // span, each under its own "shard" span, and stitches the sub-traces.
  void Scatter(size_t num_shards, const std::vector<size_t>& visit,
               const FanOutHooks& hooks, const Task& task);

  // Final wall time and this layer's own CPU on top of `cost`.
  void Finish(SearchCost* cost) const;

  ThreadPool* pool_;
  Trace* trace_;
  WallTimer wall_;
  ThreadCpuTimer cpu_;
  // Calling-thread CPU spent inside Scatter's fan-out window.
  double fanout_cpu_ms_ = 0.0;
};

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_FAN_OUT_H_
