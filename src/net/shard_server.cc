#include "net/shard_server.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/timer.h"
#include "obs/exporters.h"
#include "net/serialize.h"

namespace warpindex {
namespace {

// Inverse of MethodKindName (core/engine.cc).
bool ParseMethodKindName(const std::string& name, MethodKind* out) {
  static constexpr MethodKind kKinds[] = {
      MethodKind::kTwSimSearch,    MethodKind::kNaiveScan,
      MethodKind::kLbScan,         MethodKind::kStFilter,
      MethodKind::kTwSimSearchCascade,
  };
  for (const MethodKind kind : kKinds) {
    if (name == MethodKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)),
      server_([this] {
        WireServerOptions server_options = options_.server;
        server_options.name = "shard-server";
        return server_options;
      }()) {}

Status ShardServer::Create(ShardServerOptions options,
                           std::unique_ptr<ShardServer>* out) {
  auto server = std::unique_ptr<ShardServer>(new ShardServer(std::move(options)));
  WARPINDEX_RETURN_IF_ERROR(server->Load());
  server->RegisterHandlers();
  *out = std::move(server);
  return Status::Ok();
}

Status ShardServer::Load() {
  if (options_.serve_shards.empty()) {
    return Status::InvalidArgument(
        "a shard server must serve at least one shard");
  }
  WARPINDEX_RETURN_IF_ERROR(LoadShardManifest(
      options_.db_dir + "/manifest.wism", &manifest_));
  std::set<uint32_t> seen;
  for (const uint32_t shard : options_.serve_shards) {
    if (shard >= manifest_.assignment.num_shards) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) + " out of range: manifest has " +
          std::to_string(manifest_.assignment.num_shards) + " shards");
    }
    if (!seen.insert(shard).second) {
      return Status::InvalidArgument("shard " + std::to_string(shard) +
                                     " listed twice");
    }
  }
  options_.engine.page_size_bytes = manifest_.page_size_bytes;

  shards_.resize(options_.serve_shards.size());
  for (size_t slot = 0; slot < shards_.size(); ++slot) {
    WARPINDEX_RETURN_IF_ERROR(
        OpenBaseShard(options_.db_dir, options_.serve_shards[slot],
                      manifest_.assignment, options_.engine, &shards_[slot]));
  }
  return Status::Ok();
}

void ShardServer::RegisterHandlers() {
  server_.Handle(WireType::kHello,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleHello(request, response);
                 });
  server_.Handle(WireType::kRange,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleRange(request, response);
                 });
  server_.Handle(WireType::kKnn,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleKnn(request, response);
                 });
  server_.Handle(WireType::kStats,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleStats(request, response);
                 });
}

Status ShardServer::HandleStats(const JsonValue& /*request*/,
                                JsonValue* response) {
  response->Set("server", JsonValue::Str("shard-server"));
  response->Set("group", JsonValue::Int(options_.group));
  response->Set("replica", JsonValue::Int(options_.replica));
  response->Set("draining", JsonValue::Bool(server_.draining()));
  response->Set("shards",
                JsonValue::Int(static_cast<int64_t>(shards_.size())));
  // The same snapshot /metrics would render on this process, as a JSON
  // object the poller can walk (counter sums, histogram bucket merges).
  MetricsRegistry* registry = options_.server.metrics != nullptr
                                  ? options_.server.metrics
                                  : &MetricsRegistry::Global();
  const ProcessSelfMetrics process = CollectProcessSelfMetrics();
  JsonValue metrics;
  const Status parsed = JsonValue::Parse(
      MetricsToJson(registry->TakeSnapshot(), nullptr, &process), &metrics);
  response->Set("metrics",
                parsed.ok() ? std::move(metrics) : JsonValue::Object());
  return Status::Ok();
}

std::vector<ShardServer::ServedShard> ShardServer::served() const {
  std::vector<ServedShard> out;
  out.reserve(shards_.size());
  for (size_t slot = 0; slot < shards_.size(); ++slot) {
    ServedShard row;
    row.shard = options_.serve_shards[slot];
    row.sequences = shards_[slot].engine->dataset().size();
    row.live = shards_[slot].engine->live_size();
    out.push_back(row);
  }
  return out;
}

int ShardServer::SlotOf(uint32_t shard) const {
  for (size_t slot = 0; slot < options_.serve_shards.size(); ++slot) {
    if (options_.serve_shards[slot] == shard) {
      return static_cast<int>(slot);
    }
  }
  return -1;
}

Status ShardServer::RequestedSlots(const JsonValue& request,
                                   std::vector<int>* slots) const {
  const JsonValue* shards = request.Find("shards");
  if (shards == nullptr || shards->kind() != JsonValue::Kind::kArray ||
      shards->size() == 0) {
    return Status::InvalidArgument(
        "request needs a non-empty 'shards' array");
  }
  slots->clear();
  slots->reserve(shards->size());
  for (const JsonValue& item : shards->items()) {
    const int64_t shard = item.AsInt();
    const int slot =
        shard >= 0 ? SlotOf(static_cast<uint32_t>(shard)) : -1;
    if (slot < 0) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " is not served by this server");
    }
    slots->push_back(slot);
  }
  return Status::Ok();
}

Status ShardServer::HandleHello(const JsonValue& /*request*/,
                                JsonValue* response) {
  response->Set("role", JsonValue::Str("shard-server"));
  response->Set("group", JsonValue::Int(options_.group));
  response->Set("replica", JsonValue::Int(options_.replica));
  response->Set("num_shards",
                JsonValue::Int(static_cast<int64_t>(
                    manifest_.assignment.num_shards)));
  response->Set("partitioner",
                JsonValue::Str(PartitionerKindName(manifest_.partitioner)));
  JsonValue shards = JsonValue::Array();
  for (size_t slot = 0; slot < shards_.size(); ++slot) {
    const BaseShard& shard = shards_[slot];
    JsonValue item = JsonValue::Object();
    item.Set("shard", JsonValue::Int(options_.serve_shards[slot]));
    item.Set("sequences", JsonValue::Int(static_cast<int64_t>(
                              shard.engine->dataset().size())));
    item.Set("live",
             JsonValue::Int(static_cast<int64_t>(shard.engine->live_size())));
    // null MBR = empty shard; the router prunes it unconditionally,
    // matching ShardFeatureBounds::valid == false in-process.
    item.Set("mbr", shard.bounds.valid ? RectToJson(shard.bounds.mbr)
                                       : JsonValue::Null());
    shards.Add(std::move(item));
  }
  response->Set("shards", std::move(shards));
  return Status::Ok();
}

Status ShardServer::HandleRange(const JsonValue& request,
                                JsonValue* response) {
  WallTimer timer;
  // The per-slot engine searches run on this thread and already measure
  // their own CPU (summed into merged.cost via MergeParallel), so this
  // handler adds only its parse/merge/serialize share: total thread CPU
  // minus the windows spent inside the engine calls.
  ThreadCpuTimer cpu_timer;
  double search_caller_cpu_ms = 0.0;
  std::vector<int> slots;
  WARPINDEX_RETURN_IF_ERROR(RequestedSlots(request, &slots));
  MethodKind kind;
  const std::string method = request.GetString("method", "");
  if (!ParseMethodKindName(method, &kind)) {
    return Status::InvalidArgument("unknown method '" + method + "'");
  }
  // A remote request must never crash the process: ST-Filter needs the
  // suffix tree this server may have been started without.
  if (kind == MethodKind::kStFilter &&
      !options_.engine.build_st_filter) {
    return Status::InvalidArgument(
        "this server was started without the ST-Filter index "
        "(st_filter=false)");
  }
  const double epsilon = request.GetDouble("epsilon", -1.0);
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  const JsonValue* query_json = request.Find("query");
  if (query_json == nullptr) {
    return Status::InvalidArgument("request needs a 'query' array");
  }
  Sequence query;
  WARPINDEX_RETURN_IF_ERROR(JsonToSequence(*query_json, &query));
  const bool traced = request.GetBool("trace", false);

  Trace trace;
  SearchResult merged;
  for (const int slot : slots) {
    DtwScratch scratch;
    Trace* sub = nullptr;
    size_t span = 0;
    if (traced) {
      sub = &trace;
      trace.SetThreadTag(
          static_cast<int32_t>(options_.serve_shards[slot]), 0);
      span = trace.BeginSpan("shard");
      trace.AddCounter("shard_index",
                       static_cast<double>(options_.serve_shards[slot]));
    }
    ThreadCpuTimer search_cpu;
    const SearchResult partial =
        shards_[slot].engine->SearchWith(kind, query, epsilon, sub, &scratch);
    search_caller_cpu_ms += search_cpu.ElapsedMillis();
    if (traced) {
      trace.AddCounter("candidates",
                       static_cast<double>(partial.num_candidates));
      trace.AddCounter("matches",
                       static_cast<double>(partial.matches.size()));
      trace.EndSpan(span);
    }
    merged.num_candidates += partial.num_candidates;
    for (const SequenceId local : partial.matches) {
      merged.matches.push_back(
          (*shards_[slot].global_of)[static_cast<size_t>(local)]);
    }
    merged.distances.insert(merged.distances.end(),
                            partial.distances.begin(),
                            partial.distances.end());
    merged.cost.MergeParallel(partial.cost);
  }
  CanonicalizeMatchOrder(&merged);
  merged.cost.wall_ms = timer.ElapsedMillis();
  merged.cost.cpu_ms +=
      std::max(0.0, cpu_timer.ElapsedMillis() - search_caller_cpu_ms);

  JsonValue matches = JsonValue::Array();
  for (const SequenceId id : merged.matches) {
    matches.Add(JsonValue::Int(id));
  }
  response->Set("matches", std::move(matches));
  // Exact per-match D_tw distances, parallel to "matches". Doubles
  // serialize at %.17g so the router's cache stores bit-identical values.
  JsonValue distances = JsonValue::Array();
  for (const double d : merged.distances) {
    distances.Add(JsonValue::Double(d));
  }
  response->Set("distances", std::move(distances));
  response->Set("num_candidates",
                JsonValue::Int(static_cast<int64_t>(merged.num_candidates)));
  response->Set("cost", CostToJson(merged.cost));
  if (traced) {
    response->Set("spans", SpansToJson(trace.spans()));
  }
  return Status::Ok();
}

Status ShardServer::HandleKnn(const JsonValue& request,
                              JsonValue* response) {
  WallTimer timer;
  // Same CPU accounting as HandleRange.
  ThreadCpuTimer cpu_timer;
  double search_caller_cpu_ms = 0.0;
  std::vector<int> slots;
  WARPINDEX_RETURN_IF_ERROR(RequestedSlots(request, &slots));
  const int64_t k = request.GetInt("k", 0);
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  const JsonValue* query_json = request.Find("query");
  if (query_json == nullptr) {
    return Status::InvalidArgument("request needs a 'query' array");
  }
  Sequence query;
  WARPINDEX_RETURN_IF_ERROR(JsonToSequence(*query_json, &query));
  const bool traced = request.GetBool("trace", false);

  // The router's wave bound seeds the shared bound: pruning is strictly
  // greater-than, so members tying the bound survive for the (distance,
  // id) merge — the exactness argument in docs/NETWORKING.md.
  SharedKnnBound shared_bound;
  if (const JsonValue* bound = request.Find("bound");
      bound != nullptr && bound->is_number()) {
    shared_bound.Tighten(bound->AsDouble());
  }

  Trace trace;
  KnnResult merged;
  std::vector<KnnMatch> all;
  for (const int slot : slots) {
    Trace* sub = nullptr;
    size_t span = 0;
    if (traced) {
      sub = &trace;
      trace.SetThreadTag(
          static_cast<int32_t>(options_.serve_shards[slot]), 0);
      span = trace.BeginSpan("shard");
      trace.AddCounter("shard_index",
                       static_cast<double>(options_.serve_shards[slot]));
    }
    ThreadCpuTimer search_cpu;
    const KnnResult partial = shards_[slot].engine->SearchKnnBounded(
        query, static_cast<size_t>(k), sub, &shared_bound);
    search_caller_cpu_ms += search_cpu.ElapsedMillis();
    if (traced) {
      trace.AddCounter("neighbors",
                       static_cast<double>(partial.neighbors.size()));
      trace.AddCounter("refined",
                       static_cast<double>(partial.num_refined));
      trace.EndSpan(span);
    }
    merged.num_refined += partial.num_refined;
    merged.cost.MergeParallel(partial.cost);
    for (KnnMatch match : partial.neighbors) {
      match.id = (*shards_[slot].global_of)[static_cast<size_t>(match.id)];
      all.push_back(match);
    }
  }
  std::sort(all.begin(), all.end(), KnnMatchOrder);
  if (all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  merged.cost.wall_ms = timer.ElapsedMillis();
  merged.cost.cpu_ms +=
      std::max(0.0, cpu_timer.ElapsedMillis() - search_caller_cpu_ms);

  response->Set("neighbors", KnnMatchesToJson(all));
  response->Set("num_refined",
                JsonValue::Int(static_cast<int64_t>(merged.num_refined)));
  const double bound_after = shared_bound.Current();
  response->Set("bound_after", bound_after < kInfiniteDistance
                                   ? JsonValue::Double(bound_after)
                                   : JsonValue::Null());
  response->Set("cost", CostToJson(merged.cost));
  if (traced) {
    response->Set("spans", SpansToJson(trace.spans()));
  }
  return Status::Ok();
}

}  // namespace warpindex
