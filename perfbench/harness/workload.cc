#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/prng.h"
#include "common/workload.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"

namespace perfbench {
namespace {

using warpindex::MethodKind;

// Sub-seed labels, so the corpus, the pool, the stream and the writes
// draw from independent streams of one run seed.
constexpr uint64_t kCorpusLabel = 1;
constexpr uint64_t kPoolLabel = 2;
constexpr uint64_t kStreamLabel = 3;
constexpr uint64_t kWriteLabel = 4;
constexpr uint64_t kZipfLabel = 5;

uint64_t SubSeed(uint64_t seed, uint64_t label) {
  return warpindex::Prng(seed).Fork(label).NextUint64();
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(h, bits);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> w(4);

    w[0].name = "dtw_range";
    w[0].why = "uniform distinct range and kNN queries on one Engine: DTW "
               "post-filter and lower-bound cascade do the work; cache, "
               "shards, ingest and net are bypassed";
    w[0].stack = StackKind::kSingle;
    w[0].corpus = 100000;
    w[0].length = 128;
    w[0].nominal_qps = 1000.0;
    w[0].warmup_ops = 200;
    w[0].epsilons = {0.1, 0.125, 0.15};
    w[0].cascade_share = 0.25;
    w[0].knn_share = 0.4;
    w[0].knn_k = {1, 3};

    w[1].name = "zipf_sharded";
    w[1].why = "Zipf(1.0) repeats on 4 hash shards with the executor cache "
               "evicting: dispatch, cache lookup and fan-out dominate, DTW "
               "runs only on misses";
    w[1].stack = StackKind::kSharded;
    w[1].corpus = 100000;
    w[1].length = 128;
    w[1].zipf_pool = 4096;
    w[1].nominal_qps = 6000.0;
    w[1].warmup_ops = 8000;
    w[1].epsilons = {0.05, 0.075, 0.1};
    w[1].knn_share = 0.25;
    w[1].knn_k = {1, 3, 5};
    w[1].cache_bytes = 512 << 10;

    w[2].name = "ingest_mixed";
    w[2].why = "Zipf reads of 16 tenants beside an open-loop insert/delete "
               "writer on a 4-shard IngestEngine with its compactor: cache "
               "invalidation, delta scans and compactions";
    w[2].stack = StackKind::kIngest;
    w[2].corpus = 50000;
    w[2].length = 128;
    w[2].zipf_pool = 256;
    w[2].tenants = 16;
    w[2].nominal_qps = 2000.0;
    w[2].warmup_ops = 1000;
    w[2].epsilons = {0.03, 0.05};
    w[2].knn_share = 0.25;
    w[2].knn_k = {1};
    w[2].cache_bytes = 512 << 10;
    w[2].write_rate = 200.0;
    w[2].delete_every = 8;
    w[2].compact_entries = 64;
    w[2].write_warmup_s = 5.0;

    w[3].name = "wire_route";
    w[3].why = "uniform short queries with tight tolerance through a Router "
               "to 2 loopback ShardServers: framing, JSON and sockets "
               "dominate; save and open are in setup";
    w[3].stack = StackKind::kWire;
    w[3].corpus = 100000;
    w[3].length = 64;
    w[3].nominal_qps = 3000.0;
    w[3].warmup_ops = 400;
    w[3].epsilons = {0.03, 0.05};
    w[3].knn_share = 0.25;
    w[3].knn_k = {3};
    return w;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

size_t TimedOps(const WorkloadSpec& spec, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.nominal_qps * seconds)));
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Inputs inputs;
  inputs.warmup = spec.warmup_ops;
  const size_t ops = spec.warmup_ops + TimedOps(spec, seconds);
  const size_t pool = spec.zipf_pool > 0 ? spec.zipf_pool * spec.tenants : ops;
  warpindex::RandomWalkOptions walks;
  walks.num_sequences = spec.corpus;
  walks.min_length = spec.length;
  walks.max_length = spec.length;
  walks.seed = SubSeed(seed, kCorpusLabel);
  inputs.data = warpindex::GenerateRandomWalkDataset(walks);

  // The paper's section 5 recipe: each query is a perturbed copy of a
  // random data sequence.
  inputs.pool = warpindex::GenerateQueryWorkload(
      inputs.data, warpindex::QueryWorkloadOptions{
                       .num_queries = pool,
                       .seed = SubSeed(seed, kPoolLabel)});

  warpindex::Prng prng(SubSeed(seed, kStreamLabel));
  warpindex::bench::ZipfianSampler zipf(warpindex::bench::ZipfianOptions{
      .num_items = spec.zipf_pool, .seed = SubSeed(seed, kZipfLabel)});
  inputs.stream.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    Op op;
    if (spec.zipf_pool > 0) {
      const size_t tenant = static_cast<size_t>(
          prng.UniformInt(0, static_cast<int64_t>(spec.tenants) - 1));
      op.query = static_cast<uint32_t>(tenant * spec.zipf_pool +
                                       zipf.Next());
    } else {
      op.query = static_cast<uint32_t>(i);
    }
    if (prng.NextDouble() < spec.knn_share) {
      op.kind = OpKind::kKnn;
      op.k = spec.knn_k[static_cast<size_t>(prng.UniformInt(
          0, static_cast<int64_t>(spec.knn_k.size()) - 1))];
    } else {
      op.kind = OpKind::kRange;
      op.epsilon = spec.epsilons[static_cast<size_t>(prng.UniformInt(
          0, static_cast<int64_t>(spec.epsilons.size()) - 1))];
      op.method = prng.NextDouble() < spec.cascade_share
                      ? MethodKind::kTwSimSearchCascade
                      : MethodKind::kTwSimSearch;
    }
    inputs.stream.push_back(op);
  }
  return inputs;
}

warpindex::Sequence MakeWritePayload(const warpindex::Dataset& data,
                                     uint64_t seed, size_t i) {
  warpindex::Prng prng(SubSeed(seed, kWriteLabel) + i);
  const size_t base = static_cast<size_t>(
      prng.UniformInt(0, static_cast<int64_t>(data.size()) - 1));
  return warpindex::PerturbSequence(data[base], prng.NextUint64());
}

uint64_t InputsDigest(const Inputs& inputs) {
  uint64_t h = 0;
  for (const warpindex::Sequence& s : inputs.data.sequences()) {
    for (const double v : s.elements()) {
      h = MixDouble(h, v);
    }
  }
  for (const warpindex::Sequence& s : inputs.pool) {
    for (const double v : s.elements()) {
      h = MixDouble(h, v);
    }
  }
  for (const Op& op : inputs.stream) {
    h = Mix(h, static_cast<uint64_t>(op.kind));
    h = Mix(h, op.query);
    h = Mix(h, static_cast<uint64_t>(op.method));
    h = MixDouble(h, op.epsilon);
    h = Mix(h, op.k);
  }
  return h;
}

}  // namespace perfbench
