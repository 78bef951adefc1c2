// The in-process fan-out core (shard/fan_out.h) is one implementation:
// an IngestEngine that has taken no writes is a ShardedEngine over the
// same dataset and partitioner — the same range and kNN answers, and the
// same shard-level trace: one scatter_gather span, the same "shard"
// spans by shard_index, the same "shard_skipped" markers.

#include "shard/fan_out.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "ingest/ingest_engine.h"
#include "obs/trace.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

constexpr size_t kShards = 4;

// Two feature-space clusters far apart, so the range partitioner gives
// shards with disjoint MBRs and cluster-local queries skip shards.
Dataset ClusteredDataset() {
  RandomWalkOptions low;
  low.num_sequences = 40;
  low.min_length = 24;
  low.max_length = 40;
  low.start_min = 0.0;
  low.start_max = 1.0;
  low.seed = 5;
  Dataset dataset = GenerateRandomWalkDataset(low);
  RandomWalkOptions high = low;
  high.start_min = 200.0;
  high.start_max = 201.0;
  high.seed = 6;
  const Dataset far_cluster = GenerateRandomWalkDataset(high);
  for (size_t i = 0; i < far_cluster.size(); ++i) {
    dataset.Add(far_cluster[i]);
  }
  return dataset;
}

// (span name, parent span name, shard_index) of every fan-out span, in
// span order. Subtrees below "shard" (the per-shard search, the ingest
// delta scan) are the callers' own and are not compared.
struct FanOutSpan {
  std::string name;
  std::string parent;
  double shard_index;
  bool operator==(const FanOutSpan& other) const {
    return name == other.name && parent == other.parent &&
           shard_index == other.shard_index;
  }
};

void PrintTo(const FanOutSpan& span, std::ostream* os) {
  *os << span.name << " under " << span.parent << " #" << span.shard_index;
}

std::vector<FanOutSpan> FanOutShape(const Trace& trace) {
  std::vector<FanOutSpan> shape;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name != "scatter_gather" && span.name != "shard" &&
        span.name != "shard_skipped") {
      continue;
    }
    double shard_index = -1.0;
    for (const auto& [name, value] : span.counters) {
      if (name == "shard_index") {
        shard_index = value;
      }
    }
    shape.push_back(FanOutSpan{
        span.name,
        span.parent < 0
            ? std::string()
            : trace.spans()[static_cast<size_t>(span.parent)].name,
        shard_index});
  }
  return shape;
}

size_t CountSpans(const std::vector<FanOutSpan>& shape,
                  const std::string& name) {
  size_t count = 0;
  for (const FanOutSpan& span : shape) {
    count += span.name == name ? 1 : 0;
  }
  return count;
}

TEST(FanOutTest, ReadOnlyIngestEngineIsAShardedEngine) {
  for (const PartitionerKind partitioner :
       {PartitionerKind::kHash, PartitionerKind::kRange}) {
    SCOPED_TRACE(PartitionerKindName(partitioner));
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = kShards;
    sharded_options.partitioner = partitioner;
    const ShardedEngine sharded(ClusteredDataset(), sharded_options);
    IngestOptions ingest_options;
    ingest_options.num_shards = kShards;
    ingest_options.partitioner = partitioner;
    ingest_options.start_compactor = false;
    const IngestEngine ingest(ClusteredDataset(), ingest_options);

    QueryWorkloadOptions workload;
    workload.num_queries = 8;
    workload.seed = 17;
    size_t skip_markers = 0;
    for (const Sequence& q :
         GenerateQueryWorkload(ClusteredDataset(), workload)) {
      Trace sharded_trace;
      Trace ingest_trace;
      const SearchResult want =
          sharded.SearchWith(MethodKind::kTwSimSearch, q, 0.5,
                             &sharded_trace);
      const SearchResult got =
          ingest.SearchWith(MethodKind::kTwSimSearch, q, 0.5, &ingest_trace);
      EXPECT_EQ(got.matches, want.matches);
      EXPECT_EQ(got.distances, want.distances);
      EXPECT_EQ(got.num_candidates, want.num_candidates);
      const std::vector<FanOutSpan> shape = FanOutShape(sharded_trace);
      EXPECT_EQ(FanOutShape(ingest_trace), shape);
      EXPECT_EQ(CountSpans(shape, "scatter_gather"), 1u);
      EXPECT_EQ(CountSpans(shape, "shard") + CountSpans(shape, "shard_skipped"),
                kShards);
      skip_markers += CountSpans(shape, "shard_skipped");

      Trace sharded_knn_trace;
      Trace ingest_knn_trace;
      EXPECT_EQ(ingest.SearchKnn(q, 3, &ingest_knn_trace).neighbors,
                sharded.SearchKnn(q, 3, &sharded_knn_trace).neighbors);
      const std::vector<FanOutSpan> knn_shape =
          FanOutShape(sharded_knn_trace);
      EXPECT_EQ(FanOutShape(ingest_knn_trace), knn_shape);
      EXPECT_EQ(CountSpans(knn_shape, "scatter_gather"), 1u);
    }
    if (partitioner == PartitionerKind::kRange) {
      // Cluster-local queries skip the far cluster's shards: the markers
      // compared above are really there.
      EXPECT_GT(skip_markers, 0u);
    }
  }
}

}  // namespace
}  // namespace warpindex
