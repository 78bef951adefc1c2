// The benchmark's four workloads and the seeded inputs each run replays.
//
// Everything a run feeds the program comes from MakeInputs(spec, seed):
// the random-walk corpus, the perturbed-copy query pool and one pass of
// the operation stream. The same seed gives the same inputs; the program
// receives only these generated inputs.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sequence/dataset.h"
#include "sequence/sequence.h"

namespace perfbench {

enum class StackKind {
  kSingle,   // one Engine behind the QueryExecutor
  kSharded,  // 4-shard hash ShardedEngine + executor-tier SemanticCache
  kIngest,   // 4-shard IngestEngine + compactor + the same cache
  kWire,     // 2 ShardServers on loopback + Router behind the executor
};

enum class OpKind { kRange, kKnn };

struct Op {
  OpKind kind = OpKind::kRange;
  uint32_t query = 0;  // index into the query pool
  warpindex::MethodKind method = warpindex::MethodKind::kTwSimSearch;
  double epsilon = 0.0;
  uint32_t k = 0;
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  StackKind stack = StackKind::kSingle;
  size_t corpus = 0;   // random walks in the database
  size_t length = 0;   // elements per walk
  // Zipf(1.0) over a pool of this many distinct queries per tenant; 0
  // makes every operation's query distinct (uniform).
  size_t zipf_pool = 0;
  // Readers with their own pools: each op picks a tenant uniformly, then
  // a query by Zipf(1.0) in that tenant's pool.
  size_t tenants = 1;
  // The timed stream holds nominal_qps x seconds operations: about the
  // requested run time on the reference host, and the same operations
  // whatever the program's speed.
  double nominal_qps = 0.0;
  size_t warmup_ops = 0;  // untimed prefix run before the timed stream
  std::vector<double> epsilons;  // range tolerance mix, equal shares
  double cascade_share = 0.0;    // range ops on kTwSimSearchCascade
  double knn_share = 0.0;        // share of ops that are kNN
  std::vector<uint32_t> knn_k;   // k mix, equal shares
  size_t cache_bytes = 0;        // executor-tier cache budget, 0 = none
  double write_rate = 0.0;       // open-loop writes per second, 0 = none
  size_t delete_every = 0;       // every n-th write deletes an acked id
  size_t compact_entries = 0;    // ingest compaction threshold
  // Untimed writes before the timed window, while the readers wrap
  // around the warm-up prefix.
  double write_warmup_s = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct Inputs {
  warpindex::Dataset data;
  std::vector<warpindex::Sequence> pool;
  // Ops [0, warmup) are the untimed warm-up prefix; the rest are timed.
  std::vector<Op> stream;
  size_t warmup = 0;
};

// Timed operations of a run of `seconds` (at least one).
size_t TimedOps(const WorkloadSpec& spec, double seconds);

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds);

// The i-th write of the ingest writer: a perturbed copy of a corpus walk.
warpindex::Sequence MakeWritePayload(const warpindex::Dataset& data,
                                     uint64_t seed, size_t i);

// Order-sensitive digest of a run's inputs (self-test and provenance).
uint64_t InputsDigest(const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
