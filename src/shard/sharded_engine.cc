#include "shard/sharded_engine.h"

#include <cassert>
#include <string>
#include <utility>

#include "shard/shard_io.h"

namespace warpindex {

ShardedEngine::ShardedEngine(Dataset dataset, ShardedEngineOptions options)
    : options_(std::move(options)) {
  assert(options_.num_shards >= 1);
  ShardAssignment assignment =
      AssignShards(dataset, options_.partitioner, options_.num_shards);
  shards_ = BuildBaseShards(std::move(dataset), assignment, options_.engine);
  Init(std::move(assignment));
}

ShardedEngine::ShardedEngine(std::vector<BaseShard> shards,
                             ShardedEngineOptions options,
                             ShardAssignment assignment)
    : options_(std::move(options)), shards_(std::move(shards)) {
  Init(std::move(assignment));
}

void ShardedEngine::Init(ShardAssignment assignment) {
  shard_of_ = std::move(assignment.shard_of);
  local_of_.resize(shard_of_.size());
  std::vector<SequenceId> next_local(shards_.size(), 0);
  for (size_t g = 0; g < shard_of_.size(); ++g) {
    const uint32_t s = shard_of_[g];
    // Manifest v2: a dropped id (deleted and compacted away; see
    // shard/shard_io.h) keeps its slot in the global id space but maps
    // to no shard.
    local_of_[g] = s == kDroppedShard ? kInvalidSequenceId : next_local[s]++;
  }

  shard_queries_ = std::vector<std::atomic<uint64_t>>(shards_.size());
  shard_skipped_ = std::vector<std::atomic<uint64_t>>(shards_.size());
  MetricsRegistry& registry = metrics();
  queries_total_ =
      registry.GetCounter("warpindex_shard_queries_total",
                          "Logical queries served by the sharded engine");
  subqueries_total_ =
      registry.GetCounter("warpindex_shard_subqueries_total",
                          "Per-shard sub-queries executed");
  skipped_total_ =
      registry.GetCounter("warpindex_shard_skipped_total",
                          "Shard visits avoided by feature-MBR pruning");
  fanout_hist_ = registry.GetHistogram(
      "warpindex_shard_fanout", LinearBoundaries(1.0, 1.0, 16),
      "Shards queried per logical query");
}

size_t ShardedEngine::live_size() const {
  size_t live = 0;
  for (const BaseShard& shard : shards_) {
    live += shard.engine->live_size();
  }
  return live;
}

FanOutHooks ShardedEngine::BeginFanOut(size_t* skipped) const {
  logical_queries_.fetch_add(1, std::memory_order_relaxed);
  queries_total_->Increment();
  FanOutHooks hooks;
  hooks.labels = {{"partitioner", static_cast<double>(options_.partitioner)}};
  hooks.on_skip = [this, skipped](size_t s) {
    ++*skipped;
    shard_skipped_[s].fetch_add(1, std::memory_order_relaxed);
  };
  hooks.on_visit = [this](size_t s, const SearchResult* /*base*/) {
    shard_queries_[s].fetch_add(1, std::memory_order_relaxed);
  };
  return hooks;
}

void ShardedEngine::FinishFanOut(size_t skipped) const {
  const size_t visited = shards_.size() - skipped;
  skipped_total_->Increment(skipped);
  subqueries_total_->Increment(visited);
  fanout_hist_->Observe(static_cast<double>(visited));
}

SearchResult ShardedEngine::SearchWith(MethodKind kind, const Sequence& query,
                                       double epsilon, Trace* trace,
                                       DtwScratch* /*scratch*/) const {
  FanOut fan_out(pool_, trace);
  size_t skipped = 0;
  FanOutHooks hooks = BeginFanOut(&skipped);
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;
  hooks.on_visit = [&](size_t s, const SearchResult* base) {
    shard_queries_[s].fetch_add(1, std::memory_order_relaxed);
    RecordShardFlight(s, MethodKindName(kind), epsilon, query.size(), *base,
                      trace_id);
  };
  SearchResult result = fan_out.Range(shards_, kind, query, epsilon, hooks);
  FinishFanOut(skipped);
  return result;
}

KnnResult ShardedEngine::SearchKnn(const Sequence& query, size_t k,
                                   Trace* trace) const {
  return SearchKnnImpl(query, k, kInfiniteDistance, trace);
}

KnnResult ShardedEngine::SearchKnnSeeded(const Sequence& query, size_t k,
                                         double seed_bound,
                                         Trace* trace) const {
  return SearchKnnImpl(query, k, seed_bound, trace);
}

KnnResult ShardedEngine::SearchKnnImpl(const Sequence& query, size_t k,
                                       double seed_bound,
                                       Trace* trace) const {
  FanOut fan_out(pool_, trace);
  size_t skipped = 0;
  const FanOutHooks hooks = BeginFanOut(&skipped);
  // A cache-provided seed is a valid upper bound on the global k-th
  // distance; pruning is strictly-above, so seeding preserves answers.
  SharedKnnBound bound;
  bound.Tighten(seed_bound);
  KnnResult result =
      fan_out.Knn(shards_, query, k, &bound, KnnResult(), hooks);
  FinishFanOut(skipped);
  return result;
}

void ShardedEngine::RecordShardFlight(size_t shard_index, const char* method,
                                      double epsilon, size_t query_length,
                                      const SearchResult& result,
                                      uint64_t trace_id) const {
  if (options_.flight_recorder == nullptr) {
    return;
  }
  FlightRecord record;
  record.trace_id = trace_id;
  record.method = method;
  record.epsilon = epsilon;
  record.query_length = query_length;
  record.matches = result.matches.size();
  record.num_candidates = result.num_candidates;
  record.wall_ms = result.cost.wall_ms;
  record.cpu_ms = result.cost.cpu_ms;
  record.dtw_evals = result.cost.dtw_evals;
  record.dtw_cells = result.cost.dtw_cells;
  record.index_nodes = result.cost.index_nodes;
  record.pool_hits = result.cost.pool_hits;
  record.pool_misses = result.cost.pool_misses;
  record.stage_ms = result.cost.stages;
  record.stage_cpu_ms = result.cost.stages_cpu;
  record.prunes = result.cost.prunes;
  record.shard = static_cast<int32_t>(shard_index);
  options_.flight_recorder->Record(std::move(record));
}

Status ShardedEngine::Save(const std::string& dir) const {
  ShardManifest manifest;
  manifest.partitioner = options_.partitioner;
  manifest.page_size_bytes = options_.engine.page_size_bytes;
  manifest.assignment.num_shards = shards_.size();
  manifest.assignment.shard_of = shard_of_;
  return SaveShardDirectory(dir, manifest, shards_);
}

Status ShardedEngine::Open(const std::string& dir,
                           ShardedEngineOptions options,
                           std::unique_ptr<ShardedEngine>* out) {
  ShardManifest manifest;
  std::vector<BaseShard> shards;
  WARPINDEX_RETURN_IF_ERROR(
      OpenShardDirectory(dir, options.num_shards, options.partitioner,
                         options.engine, &manifest, &shards));
  out->reset(new ShardedEngine(std::move(shards), std::move(options),
                               std::move(manifest.assignment)));
  return Status::Ok();
}

ShardedEngine::Health ShardedEngine::TakeHealthSnapshot() const {
  Health health;
  health.num_shards = shards_.size();
  health.partitioner = options_.partitioner;
  // Per-instance state, not the registry counters: the registry can be
  // shared across engines, but Health describes this engine alone.
  health.queries_total = logical_queries_.load(std::memory_order_relaxed);
  health.shards.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardStatus& status = health.shards[s];
    status.shard_index = s;
    status.health = shards_[s].engine->TakeHealthSnapshot();
    status.bounds = shards_[s].bounds;
    status.queries = shard_queries_[s].load(std::memory_order_relaxed);
    status.skipped = shard_skipped_[s].load(std::memory_order_relaxed);
    health.subqueries_total += status.queries;
    health.shards_skipped_total += status.skipped;
  }
  return health;
}

}  // namespace warpindex
