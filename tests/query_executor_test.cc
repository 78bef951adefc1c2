#include "exec/query_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include "ingest/ingest_engine.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

Dataset TestDataset() {
  RandomWalkOptions options;
  options.num_sequences = 60;
  options.min_length = 20;
  options.max_length = 48;
  options.seed = 11;
  return GenerateRandomWalkDataset(options);
}

EngineOptions TestEngineOptions() {
  EngineOptions options;
  options.build_st_filter = true;  // so kStFilter is exercised too
  return options;
}

std::vector<Sequence> TestQueries(const Engine& engine, size_t n) {
  QueryWorkloadOptions options;
  options.num_queries = n;
  options.seed = 23;
  return GenerateQueryWorkload(engine.dataset(), options);
}

// Everything about an answer that must not depend on scheduling. Pool
// hit/miss counts are excluded on purpose: with a shared LRU pool the
// cache state a query observes depends on which queries ran before it.
struct AnswerKey {
  std::vector<SequenceId> matches;
  size_t num_candidates;
  uint64_t dtw_cells;

  explicit AnswerKey(const SearchResult& r)
      : matches(r.matches),
        num_candidates(r.num_candidates),
        dtw_cells(r.cost.dtw_cells) {}

  bool operator==(const AnswerKey& other) const {
    return matches == other.matches &&
           num_candidates == other.num_candidates &&
           dtw_cells == other.dtw_cells;
  }
};

// The acceptance-criterion test: a batch executed over >= 4 threads is
// answer-identical to running the same queries sequentially, for all four
// methods. Run it under TSan in CI to also certify the read path is
// race-free.
TEST(QueryExecutorTest, BatchOverFourThreadsMatchesSequential) {
  const Engine engine(TestDataset(), TestEngineOptions());
  const std::vector<Sequence> queries = TestQueries(engine, 12);
  const double epsilon = 0.25;

  const MethodKind kinds[] = {MethodKind::kTwSimSearch,
                              MethodKind::kNaiveScan, MethodKind::kLbScan,
                              MethodKind::kStFilter};
  std::vector<QueryRequest> requests;
  std::vector<AnswerKey> expected;
  for (MethodKind kind : kinds) {
    for (const Sequence& q : queries) {
      requests.push_back(QueryRequest{kind, q, epsilon});
      expected.emplace_back(engine.SearchWith(kind, q, epsilon));
    }
  }

  QueryExecutorOptions options;
  options.num_threads = 4;
  QueryExecutor executor(&engine, options);
  const BatchResult batch = executor.SubmitBatch(requests);

  ASSERT_EQ(batch.results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(AnswerKey(batch.results[i]) == expected[i])
        << "request " << i << " ("
        << MethodKindName(requests[i].method) << ") diverged";
  }
  EXPECT_GT(batch.queries_per_sec, 0.0);
}

TEST(QueryExecutorTest, RepeatedBatchesAreIdenticalToEachOther) {
  const Engine engine(TestDataset(), TestEngineOptions());
  const std::vector<Sequence> queries = TestQueries(engine, 10);
  std::vector<QueryRequest> requests;
  for (const Sequence& q : queries) {
    requests.push_back(QueryRequest{MethodKind::kTwSimSearch, q, 0.3});
  }
  QueryExecutorOptions options;
  options.num_threads = 4;
  QueryExecutor executor(&engine, options);
  const BatchResult a = executor.SubmitBatch(requests);
  const BatchResult b = executor.SubmitBatch(requests);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(AnswerKey(a.results[i]) == AnswerKey(b.results[i]));
  }
}

TEST(QueryExecutorTest, SubmitReturnsFutureWithResult) {
  const Engine engine(TestDataset(), TestEngineOptions());
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor executor(&engine, options);
  const Sequence q = engine.dataset()[3];
  std::future<SearchResult> f =
      executor.Submit(MethodKind::kTwSimSearch, q, 0.3);
  const SearchResult result = f.get();
  const SearchResult expected =
      engine.SearchWith(MethodKind::kTwSimSearch, q, 0.3);
  EXPECT_TRUE(AnswerKey(result) == AnswerKey(expected));
  // A perturbed copy of sequence 3 should still match sequence 3.
  EXPECT_NE(std::find(result.matches.begin(), result.matches.end(), 3),
            result.matches.end());
}

std::vector<SequenceId> Sorted(std::vector<SequenceId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// A partitioned engine borrowing the pool of a 1-worker executor, queried
// from inside that pool's only task: no worker is idle, so the shard
// fan-out must complete on the calling thread alone. Range and kNN
// answers must equal a single Engine's.
void ExpectInsidePoolTaskMatchesSingleEngine(const EngineLike& partitioned,
                                             QueryExecutor& executor) {
  const Engine single(TestDataset(), EngineOptions{});
  for (const Sequence& q : TestQueries(single, 4)) {
    std::future<std::pair<SearchResult, KnnResult>> f =
        executor.pool().Submit([&]() {
          return std::make_pair(
              partitioned.SearchWith(MethodKind::kTwSimSearch, q, 0.4),
              executor.SearchKnn(q, 3));
        });
    const auto [range, knn] = f.get();
    EXPECT_EQ(range.matches, Sorted(single.Search(q, 0.4).matches));
    EXPECT_EQ(knn.neighbors, single.SearchKnn(q, 3).neighbors);
  }
}

TEST(QueryExecutorTest, ShardedQueryInsidePoolTaskMatchesSingleEngine) {
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  ShardedEngine sharded(TestDataset(), sharded_options);
  QueryExecutorOptions options;
  options.num_threads = 1;
  QueryExecutor executor(&sharded, options);
  sharded.AttachPool(&executor.pool());
  ExpectInsidePoolTaskMatchesSingleEngine(sharded, executor);
}

TEST(QueryExecutorTest, IngestQueryInsidePoolTaskMatchesSingleEngine) {
  IngestOptions ingest_options;
  ingest_options.num_shards = 3;
  ingest_options.start_compactor = false;
  IngestEngine ingest(TestDataset(), ingest_options);
  QueryExecutorOptions options;
  options.num_threads = 1;
  QueryExecutor executor(&ingest, options);
  ingest.AttachPool(&executor.pool());
  ExpectInsidePoolTaskMatchesSingleEngine(ingest, executor);
}

TEST(QueryExecutorTest, BatchCollectsPerQueryTraces) {
  const Engine engine(TestDataset(), EngineOptions{});
  std::vector<QueryRequest> requests;
  for (const Sequence& q : TestQueries(engine, 6)) {
    requests.push_back(QueryRequest{MethodKind::kTwSimSearch, q, 0.3});
  }
  QueryExecutorOptions options;
  options.num_threads = 3;
  QueryExecutor executor(&engine, options);
  BatchOptions batch_options;
  batch_options.collect_traces = true;
  const BatchResult batch = executor.SubmitBatch(requests, batch_options);
  ASSERT_EQ(batch.traces.size(), requests.size());
  for (const Trace& trace : batch.traces) {
    EXPECT_EQ(trace.open_depth(), 0u);
    ASSERT_FALSE(trace.spans().empty());
    EXPECT_EQ(trace.spans()[0].name, "query");
    EXPECT_GT(trace.TotalMillis("dtw_postfilter"), 0.0);
  }
}

TEST(QueryExecutorTest, ExecutorMetricsAreRegistered) {
  // Own registry: the default is process-global and other tests in this
  // binary would pollute the counts.
  MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.metrics = &registry;
  const Engine engine(TestDataset(), engine_options);
  std::vector<QueryRequest> requests;
  for (const Sequence& q : TestQueries(engine, 5)) {
    requests.push_back(QueryRequest{MethodKind::kLbScan, q, 0.3});
  }
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor executor(&engine, options);
  executor.SubmitBatch(requests);

  const MetricsRegistry::Snapshot snapshot = engine.MetricsSnapshot();
  uint64_t queries = 0;
  bool saw_batches = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "warpindex_exec_queries_total") {
      queries = counter.value;
    }
    if (counter.name == "warpindex_exec_batches_total") {
      saw_batches = true;
      EXPECT_EQ(counter.value, 1u);
    }
  }
  EXPECT_EQ(queries, 5u);
  EXPECT_TRUE(saw_batches);

  bool saw_inflight = false;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "warpindex_exec_inflight_queries") {
      saw_inflight = true;
      EXPECT_EQ(gauge.value, 0);  // batch drained
    }
  }
  EXPECT_TRUE(saw_inflight);

  bool saw_queue_wait = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "warpindex_exec_queue_wait_ms") {
      saw_queue_wait = true;
      EXPECT_EQ(histogram.snapshot.stats.count(), 5u);
    }
  }
  EXPECT_TRUE(saw_queue_wait);
}

// Satellite regression: per-worker scratch reuse must not change answers.
// Runs the same query repeatedly through one worker (whose scratch has
// been warmed by different-length sequences) and compares with a fresh
// engine search each time.
TEST(QueryExecutorTest, ScratchReuseAcrossQueriesKeepsAnswersStable) {
  const Engine engine(TestDataset(), EngineOptions{});
  QueryExecutorOptions options;
  options.num_threads = 1;  // everything funnels through one scratch
  QueryExecutor executor(&engine, options);
  const std::vector<Sequence> queries = TestQueries(engine, 10);
  for (int round = 0; round < 3; ++round) {
    for (const Sequence& q : queries) {
      const SearchResult pooled =
          executor.Submit(MethodKind::kNaiveScan, q, 0.35).get();
      const SearchResult fresh =
          engine.SearchWith(MethodKind::kNaiveScan, q, 0.35);
      EXPECT_TRUE(AnswerKey(pooled) == AnswerKey(fresh));
    }
  }
}

}  // namespace
}  // namespace warpindex
