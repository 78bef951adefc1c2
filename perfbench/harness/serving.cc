#include "serving.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench_math.h"
#include "cache/semantic_cache.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "exec/query_executor.h"
#include "obs/exporters.h"
#include "ingest/ingest_engine.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "shard/sharded_engine.h"

namespace perfbench {
namespace {

using warpindex::Counter;
using warpindex::Dataset;
using warpindex::Engine;
using warpindex::EngineOptions;
using warpindex::Histogram;
using warpindex::IngestEngine;
using warpindex::KnnMatch;
using warpindex::KnnResult;
using warpindex::MethodKind;
using warpindex::MetricsRegistry;
using warpindex::Percentile;
using warpindex::QueryExecutor;
using warpindex::Router;
using warpindex::SearchCost;
using warpindex::SearchResult;
using warpindex::SemanticCache;
using warpindex::SemanticCacheStats;
using warpindex::Sequence;
using warpindex::SequenceId;
using warpindex::ShardedEngine;
using warpindex::ShardServer;
using warpindex::Status;
using warpindex::Trace;
using warpindex::WallTimer;
using Clock = std::chrono::steady_clock;

// Closed loop: two client threads, each waiting for its reply before
// sending the next operation, served by a two-worker executor pool.
constexpr size_t kClients = 2;
constexpr size_t kExecutorThreads = 2;
constexpr size_t kShards = 4;
// Answers per run compared against an independent exact path.
constexpr size_t kCheckedAnswers = 40;
// Timed builds per run; setup_s is their median.
constexpr size_t kSetupBuilds = 7;

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// (steal, total) CPU ticks of the whole machine from /proc/stat: the time
// the hypervisor ran other guests on this machine's vCPUs.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0;
  double total = 0.0;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    in >> ticks;
    total += ticks;
    if (field == 7) {
      steal = ticks;
    }
  }
  return {steal, total};
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterValue(const MetricsRegistry::Snapshot& snapshot,
                      const std::string& name) {
  for (const auto& entry : snapshot.counters) {
    if (entry.name == name) {
      return entry.value;
    }
  }
  return 0;
}

Histogram::Snapshot HistogramOf(const MetricsRegistry::Snapshot& snapshot,
                                const std::string& name) {
  for (const auto& entry : snapshot.histograms) {
    if (entry.name == name) {
      return entry.snapshot;
    }
  }
  return {};
}

// ---------------------------------------------------------------------
// The serving stack of one workload.

struct Stack {
  StackKind kind = StackKind::kSingle;
  std::unique_ptr<MetricsRegistry> registry =
      std::make_unique<MetricsRegistry>();
  std::unique_ptr<MetricsRegistry> server_registry =
      std::make_unique<MetricsRegistry>();
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ShardedEngine> sharded;
  std::unique_ptr<IngestEngine> ingest;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<Router> router;
  std::unique_ptr<SemanticCache> cache;
  std::unique_ptr<QueryExecutor> executor;
  std::string db_dir;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ~Stack() {
    // The ingest engine (whose destructor drains the compactor) goes
    // before the executor whose pool it was attached to.
    ingest.reset();
    executor.reset();
    router.reset();
    for (auto& server : servers) {
      server->Stop();
    }
    servers.clear();
    if (!db_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(db_dir, ignored);
    }
  }

  uint64_t ShedTotal() const {
    uint64_t total = 0;
    for (const auto& server : servers) {
      total += server->server().stats().shed_total;
    }
    return total;
  }
};

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, Dataset data,
                                  const std::string& db_dir) {
  auto stack = std::make_unique<Stack>();
  stack->kind = spec.stack;
  EngineOptions engine_options;
  engine_options.metrics = stack->registry.get();
  warpindex::QueryExecutorOptions executor_options;
  executor_options.num_threads = kExecutorThreads;
  if (spec.cache_bytes > 0) {
    warpindex::SemanticCacheOptions cache_options;
    cache_options.max_bytes = spec.cache_bytes;
    cache_options.metrics = stack->registry.get();
    stack->cache = std::make_unique<SemanticCache>(cache_options);
    executor_options.cache = stack->cache.get();
  }

  switch (spec.stack) {
    case StackKind::kSingle: {
      stack->engine = std::make_unique<Engine>(std::move(data), engine_options);
      stack->executor = std::make_unique<QueryExecutor>(stack->engine.get(),
                                                        executor_options);
      break;
    }
    case StackKind::kSharded: {
      warpindex::ShardedEngineOptions options;
      options.num_shards = kShards;
      options.partitioner = warpindex::PartitionerKind::kHash;
      options.engine = engine_options;
      stack->sharded =
          std::make_unique<ShardedEngine>(std::move(data), options);
      stack->executor = std::make_unique<QueryExecutor>(stack->sharded.get(),
                                                        executor_options);
      stack->sharded->AttachPool(&stack->executor->pool());
      break;
    }
    case StackKind::kIngest: {
      warpindex::IngestOptions options;
      options.num_shards = kShards;
      options.partitioner = warpindex::PartitionerKind::kHash;
      options.engine = engine_options;
      options.compact_max_delta_entries = spec.compact_entries;
      options.compact_max_tombstones = spec.compact_entries;
      stack->ingest = std::make_unique<IngestEngine>(std::move(data), options);
      stack->executor = std::make_unique<QueryExecutor>(stack->ingest.get(),
                                                        executor_options);
      stack->ingest->AttachPool(&stack->executor->pool());
      stack->executor->AttachIngest(stack->ingest.get());
      break;
    }
    case StackKind::kWire: {
      stack->db_dir = db_dir;
      {
        warpindex::ShardedEngineOptions options;
        options.num_shards = kShards;
        options.partitioner = warpindex::PartitionerKind::kHash;
        options.engine = engine_options;
        const ShardedEngine built(std::move(data), options);
        Require(built.Save(db_dir), "save");
      }
      warpindex::RouterOptions router_options;
      router_options.metrics = stack->registry.get();
      for (int group = 0; group < 2; ++group) {
        warpindex::ShardServerOptions server_options;
        server_options.db_dir = db_dir;
        server_options.serve_shards = {static_cast<uint32_t>(2 * group),
                                       static_cast<uint32_t>(2 * group + 1)};
        server_options.group = group;
        server_options.engine.metrics = stack->server_registry.get();
        server_options.server.name = "shard-server";
        server_options.server.metrics = stack->server_registry.get();
        std::unique_ptr<ShardServer> server;
        Require(ShardServer::Create(std::move(server_options), &server),
                "shard server");
        Require(server->Start(), "shard server start");
        router_options.groups.push_back(
            {warpindex::RouterEndpoint{"127.0.0.1", server->port()}});
        stack->servers.push_back(std::move(server));
      }
      Require(Router::Create(std::move(router_options), &stack->router),
              "router");
      stack->executor = std::make_unique<QueryExecutor>(stack->router.get(),
                                                        executor_options);
      break;
    }
  }
  return stack;
}

// ---------------------------------------------------------------------
// Replaying the stream.

struct Answer {
  std::vector<SequenceId> ids;
  std::vector<double> distances;
  std::vector<KnnMatch> neighbors;
};

struct Sample {
  OpKind kind = OpKind::kRange;
  MethodKind method = MethodKind::kTwSimSearch;
  double latency_ms = 0.0;  // client-observed
  double wall_ms = 0.0;     // SearchCost::wall_ms reported by the program
  double done_s = 0.0;      // completion, seconds into the window
  bool hit = false;
  bool miss = false;
  bool during_compaction = false;
};

struct ClientLog {
  Clock::time_point origin;  // start of the window
  std::vector<Sample> samples;
  SearchCost cost;            // merged over every read
  SearchCost engine_cost;     // merged over reads the engine ran
  uint64_t range_candidates = 0;
  uint64_t range_matches = 0;
  uint64_t engine_range_ops = 0;
  uint64_t failed = 0;
  std::vector<Trace> traces;
  std::vector<std::pair<size_t, Answer>> answers;
};

// Whether the ingest compactor is at work, from registry series that
// cost one relaxed load each: the completed-compactions counter, and the
// per-shard delta-entry gauges, which stay at or above the compaction
// threshold from the write that crosses it until the compacted base is
// swapped in.
struct CompactionProbe {
  const Counter* completed = nullptr;
  std::vector<const warpindex::Gauge*> delta_entries;
  int64_t threshold = 0;

  bool Busy() const {
    return std::any_of(delta_entries.begin(), delta_entries.end(),
                       [&](const warpindex::Gauge* entries) {
                         return entries->value() >= threshold;
                       });
  }
};

Answer RunOp(Stack& stack, const Inputs& inputs, const Op& op, Trace* trace,
             const CompactionProbe* compaction, ClientLog* log) {
  Sample sample;
  sample.kind = op.kind;
  sample.method = op.method;
  Answer answer;
  const uint64_t completed_before =
      compaction != nullptr ? compaction->completed->value() : 0;
  const bool busy_before = compaction != nullptr && compaction->Busy();
  WallTimer timer;
  try {
    warpindex::ScopedSpan root(trace, "client_op");
    SearchCost cost;
    if (op.kind == OpKind::kRange) {
      SearchResult result;
      {
        warpindex::ScopedSpan span(trace, "exec_submit");
        result = stack.executor
                     ->Submit(op.method, inputs.pool[op.query], op.epsilon,
                              trace)
                     .get();
      }
      cost = result.cost;
      if (result.cost.cache_hits == 0) {
        log->range_candidates += result.num_candidates;
        log->range_matches += result.matches.size();
        ++log->engine_range_ops;
      }
      answer.ids = std::move(result.matches);
      answer.distances = std::move(result.distances);
    } else {
      KnnResult result;
      {
        warpindex::ScopedSpan span(trace, "exec_knn");
        result = stack.executor->SearchKnn(inputs.pool[op.query], op.k, trace);
      }
      cost = result.cost;
      answer.neighbors = std::move(result.neighbors);
    }
    sample.latency_ms = timer.ElapsedMillis();
    sample.wall_ms = cost.wall_ms;
    sample.done_s =
        std::chrono::duration<double>(Clock::now() - log->origin).count();
    sample.hit = cost.cache_hits > 0;
    sample.miss = cost.cache_misses > 0;
    log->cost.Merge(cost);
    if (!sample.hit) {
      log->engine_cost.Merge(cost);
    }
  } catch (const std::exception& e) {
    ++log->failed;
    std::fprintf(stderr, "operation failed: %s\n", e.what());
    return answer;
  }
  if (compaction != nullptr) {
    sample.during_compaction =
        busy_before || compaction->Busy() ||
        compaction->completed->value() != completed_before;
  }
  log->samples.push_back(sample);
  return answer;
}

// Ops [begin, end) of the stream on kClients closed-loop clients; client
// c takes the ops whose index is c modulo kClients. With `until` set,
// each client wraps around its ops until *until turns true.
void RunOps(Stack& stack, const Inputs& inputs, size_t begin, size_t end,
            bool traced, const std::vector<char>* record,
            const CompactionProbe* compaction,
            const std::atomic<bool>* until, std::vector<ClientLog>* logs) {
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients && begin + c < end; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = (*logs)[c];
      size_t i = begin + c;
      for (;;) {
        Trace* trace = nullptr;
        if (traced) {
          log.traces.emplace_back();
          trace = &log.traces.back();
        }
        Answer answer =
            RunOp(stack, inputs, inputs.stream[i], trace, compaction, &log);
        if (record != nullptr && (*record)[i] != 0) {
          log.answers.emplace_back(i, std::move(answer));
        }
        i += kClients;
        if (until != nullptr) {
          if (until->load(std::memory_order_acquire)) {
            break;
          }
          if (i >= end) {
            i = begin + c;
          }
        } else if (i >= end) {
          break;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
}

// ---------------------------------------------------------------------
// The open-loop writer of ingest_mixed.

struct WriteLog {
  std::vector<double> latency_ms;  // from when each write was due to its ack
  std::vector<double> lag_ms;      // how late the generator sent it
  std::vector<double> done_s;      // acknowledgement, seconds into the window
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t failed = 0;
  std::vector<Trace> traces;
};

// What the writes left behind, for the end-of-run answer check.
struct LiveSet {
  std::map<SequenceId, Sequence> inserted;
  std::set<SequenceId> deleted;
};

struct PendingWrite {
  bool is_delete = false;
  std::future<SequenceId> insert;
  std::future<bool> erase;
  SequenceId victim = warpindex::kInvalidSequenceId;
  Sequence payload;
  Clock::time_point due;
  Clock::time_point sent;
};

// Sends `count` writes, write i at start + i / rate whatever the replies
// do; every delete_every-th write deletes the oldest acknowledged insert.
// Write i inserts MakeWritePayload(first_write + i). A second thread
// collects the acknowledgements in order.
void RunWriter(Stack& stack, const WorkloadSpec& spec, const Dataset& data,
               uint64_t seed, size_t first_write, size_t count,
               Clock::time_point start, bool traced, WriteLog* log,
               LiveSet* live) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingWrite> pending;
  std::deque<SequenceId> acked;  // inserted ids not yet chosen for delete
  bool done = false;
  uint64_t unsent = 0;  // writes whose submission threw

  std::thread acker([&] {
    for (;;) {
      PendingWrite write;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) {
          return;
        }
        write = std::move(pending.front());
        pending.pop_front();
      }
      bool ok = true;
      try {
        if (write.is_delete) {
          ok = write.erase.get();
          if (ok) {
            live->deleted.insert(write.victim);
          }
        } else {
          const SequenceId id = write.insert.get();
          live->inserted.emplace(id, std::move(write.payload));
          std::lock_guard<std::mutex> lock(mu);
          acked.push_back(id);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "write failed: %s\n", e.what());
        ok = false;
      }
      const Clock::time_point now = Clock::now();
      if (!ok) {
        ++log->failed;
        continue;
      }
      log->latency_ms.push_back(
          std::chrono::duration<double, std::milli>(now - write.due).count());
      log->done_s.push_back(
          std::chrono::duration<double>(now - start).count());
      if (traced) {
        Trace trace;
        warpindex::TraceSpan span;
        span.name = write.is_delete ? "ingest_delete" : "ingest_insert";
        span.duration_ms =
            std::chrono::duration<double, std::milli>(now - write.sent)
                .count();
        trace.AppendSpan(std::move(span));
        log->traces.push_back(std::move(trace));
      }
    }
  });

  const auto interval = std::chrono::duration<double>(1.0 / spec.write_rate);
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(interval * i);
    Sequence payload = MakeWritePayload(data, seed, first_write + i);
    std::this_thread::sleep_until(due);
    PendingWrite write;
    write.due = due;
    write.sent = Clock::now();
    log->lag_ms.push_back(
        std::chrono::duration<double, std::milli>(write.sent - due).count());
    SequenceId victim = warpindex::kInvalidSequenceId;
    if ((i + 1) % spec.delete_every == 0) {
      std::lock_guard<std::mutex> lock(mu);
      if (!acked.empty()) {
        victim = acked.front();
        acked.pop_front();
      }
    }
    try {
      if (victim != warpindex::kInvalidSequenceId) {
        write.is_delete = true;
        write.victim = victim;
        write.erase = stack.executor->SubmitDelete(victim);
        ++log->deletes;
      } else {
        write.insert = stack.executor->SubmitInsert(payload);
        write.payload = std::move(payload);
        ++log->inserts;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "write submission failed: %s\n", e.what());
      ++unsent;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    pending.push_back(std::move(write));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  acker.join();
  log->failed += unsent;
}

// ---------------------------------------------------------------------
// One window: ops [begin, end) of the stream, replayed to their end. With
// `writes` > 0 the window is the open-loop writer's schedule instead
// (writes / write_rate seconds), and the readers wrap around their ops
// until the last write is acknowledged: the writes, hence the compaction
// cycles, are the same every run, and a slower read path times fewer
// reads rather than meeting more writes.

struct Window {
  std::vector<ClientLog> clients = std::vector<ClientLog>(kClients);
  WriteLog writes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_share = 0.0;  // of the machine's CPU time, from /proc/stat
  // (seconds into the window, process CPU seconds since its start)
  std::vector<std::pair<double, double>> cpu_series;
  MetricsRegistry::Snapshot registry_before, registry_after;
  MetricsRegistry::Snapshot server_before, server_after;
  SemanticCacheStats cache_before, cache_after;
  Router::Stats router_before, router_after;
  uint64_t shed_before = 0, shed_after = 0;
  IngestEngine::Health health_before, health_after;

  size_t Reads() const {
    size_t n = 0;
    for (const ClientLog& log : clients) {
      n += log.samples.size();
    }
    return n;
  }
  size_t Writes() const { return writes.latency_ms.size(); }
  uint64_t Failed() const {
    uint64_t n = writes.failed;
    for (const ClientLog& log : clients) {
      n += log.failed;
    }
    return n;
  }
  double Qps() const {
    return wall_s > 0.0 ? static_cast<double>(Reads() + Writes()) / wall_s
                        : 0.0;
  }
};

void TakeSnapshots(const Stack& stack, bool before, Window* w) {
  (before ? w->registry_before : w->registry_after) =
      stack.registry->TakeSnapshot();
  (before ? w->server_before : w->server_after) =
      stack.server_registry->TakeSnapshot();
  if (stack.cache) {
    (before ? w->cache_before : w->cache_after) = stack.cache->TakeStats();
  }
  if (stack.router) {
    (before ? w->router_before : w->router_after) = stack.router->stats();
    (before ? w->shed_before : w->shed_after) = stack.ShedTotal();
  }
  if (stack.ingest) {
    (before ? w->health_before : w->health_after) =
        stack.ingest->TakeHealthSnapshot();
  }
}

Window RunWindow(Stack& stack, const Inputs& inputs, const WorkloadSpec& spec,
                 uint64_t seed, size_t begin, size_t end, size_t first_write,
                 size_t writes, bool traced, const std::vector<char>* record,
                 LiveSet* live) {
  Window w;
  CompactionProbe probe;
  if (stack.ingest) {
    probe.completed =
        stack.registry->GetCounter("warpindex_ingest_compactions_total");
    for (size_t s = 0; s < stack.ingest->num_shards(); ++s) {
      probe.delta_entries.push_back(stack.registry->GetGauge(
          "warpindex_ingest_delta_entries_shard" + std::to_string(s)));
    }
    probe.threshold = static_cast<int64_t>(spec.compact_entries);
  }
  TakeSnapshots(stack, true, &w);
  const double cpu_before = ProcessCpuSeconds();
  const auto [steal_before, ticks_before] = StealAndTotalTicks();
  const Clock::time_point start = Clock::now();
  for (ClientLog& log : w.clients) {
    log.origin = start;
  }
  std::atomic<bool> window_done{false};
  std::thread cpu_sampler([&] {
    while (!window_done.load(std::memory_order_acquire)) {
      w.cpu_series.emplace_back(
          std::chrono::duration<double>(Clock::now() - start).count(),
          ProcessCpuSeconds() - cpu_before);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::atomic<bool> writes_done{false};
  std::thread writer;
  if (writes > 0) {
    writer = std::thread([&] {
      RunWriter(stack, spec, inputs.data, seed, first_write, writes, start,
                traced, &w.writes, live);
      writes_done.store(true, std::memory_order_release);
    });
  }
  RunOps(stack, inputs, begin, end, traced, record,
         stack.ingest ? &probe : nullptr,
         writer.joinable() ? &writes_done : nullptr, &w.clients);
  if (writer.joinable()) {
    writer.join();
  }
  w.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  w.cpu_s = ProcessCpuSeconds() - cpu_before;
  const auto [steal_after, ticks_after] = StealAndTotalTicks();
  w.steal_share =
      Ratio(steal_after - steal_before, ticks_after - ticks_before);
  window_done.store(true, std::memory_order_release);
  cpu_sampler.join();
  w.cpu_series.emplace_back(w.wall_s, w.cpu_s);
  TakeSnapshots(stack, false, &w);
  return w;
}

// ---------------------------------------------------------------------
// Answer check against an independent exact path.

// A seeded sample of the timed ops [begin, end) of the stream.
std::vector<char> SampleOps(size_t begin, size_t end, uint64_t seed) {
  std::vector<char> picked(end, 0);
  warpindex::Prng prng(seed ^ 0xc0ffeeULL);
  const size_t want = std::min(kCheckedAnswers, end - begin);
  size_t have = 0;
  while (have < want) {
    const size_t i = static_cast<size_t>(prng.UniformInt(
        static_cast<int64_t>(begin), static_cast<int64_t>(end) - 1));
    if (picked[i] == 0) {
      picked[i] = 1;
      ++have;
    }
  }
  return picked;
}

// LB-Scan (an exact scan, independent of the feature index) on a single
// Engine; `global_of[local]` maps its ids to the served ids.
bool ExactRangeMatches(const Engine& ref,
                       const std::vector<SequenceId>& global_of,
                       const Sequence& query, double epsilon,
                       const Answer& got) {
  const SearchResult r = ref.SearchWith(MethodKind::kLbScan, query, epsilon);
  std::vector<std::pair<SequenceId, double>> want;
  for (size_t i = 0; i < r.matches.size(); ++i) {
    want.emplace_back(global_of[static_cast<size_t>(r.matches[i])],
                      r.distances[i]);
  }
  std::vector<std::pair<SequenceId, double>> have;
  for (size_t i = 0; i < got.ids.size(); ++i) {
    have.emplace_back(got.ids[i], i < got.distances.size()
                                      ? got.distances[i]
                                      : 0.0);
  }
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  if (want.size() != have.size()) {
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].first != have[i].first ||
        (!got.distances.empty() && want[i].second != have[i].second)) {
      return false;
    }
  }
  return true;
}

// kNN: every sequence within the reported k-th distance, by LB-Scan,
// ordered by (distance, id), must begin with exactly the k neighbors.
bool ExactKnnMatches(const Engine& ref,
                     const std::vector<SequenceId>& global_of,
                     const Sequence& query, size_t k, const Answer& got) {
  if (got.neighbors.size() != k) {
    return false;
  }
  const double kth = got.neighbors.back().distance;
  const SearchResult r = ref.SearchWith(MethodKind::kLbScan, query, kth);
  std::vector<KnnMatch> want;
  for (size_t i = 0; i < r.matches.size(); ++i) {
    want.push_back(
        {global_of[static_cast<size_t>(r.matches[i])], r.distances[i]});
  }
  std::sort(want.begin(), want.end(), warpindex::KnnMatchOrder);
  if (want.size() < k) {
    return false;
  }
  want.resize(k);
  return want == got.neighbors;
}

struct CheckResult {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
};

std::vector<SequenceId> Identity(size_t n) {
  std::vector<SequenceId> ids(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<SequenceId>(i);
  }
  return ids;
}

CheckResult CheckAnswers(Stack& stack, const Inputs& inputs,
                         const std::vector<char>& sampled, const Window& w,
                         const LiveSet& live) {
  CheckResult check;
  const auto tally = [&](bool ok, size_t op_index) {
    ++check.checked;
    if (!ok) {
      ++check.mismatched;
      std::fprintf(stderr, "answer mismatch on stream op %zu\n", op_index);
    }
  };
  std::vector<std::pair<size_t, Answer>> answers;
  for (const ClientLog& log : w.clients) {
    for (const auto& entry : log.answers) {
      answers.push_back(entry);
    }
  }

  if (stack.kind == StackKind::kWire) {
    // Bit-identical to the in-process sharded engine over the same save.
    warpindex::ShardedEngineOptions options;
    options.num_shards = kShards;
    options.partitioner = warpindex::PartitionerKind::kHash;
    std::unique_ptr<ShardedEngine> ref;
    Require(ShardedEngine::Open(stack.db_dir, options, &ref), "open");
    for (const auto& [i, got] : answers) {
      const Op& op = inputs.stream[i];
      const Sequence& q = inputs.pool[op.query];
      if (op.kind == OpKind::kRange) {
        const SearchResult r = ref->SearchWith(op.method, q, op.epsilon);
        tally(r.matches == got.ids && r.distances == got.distances, i);
      } else {
        tally(ref->SearchKnn(q, op.k).neighbors == got.neighbors, i);
      }
    }
    return check;
  }

  if (stack.kind == StackKind::kIngest) {
    // At the quiescent end of the run: ask the live stack again and
    // compare with a from-scratch Engine over the live set.
    std::vector<Sequence> rows;
    std::vector<SequenceId> global_of;
    for (size_t id = 0; id < inputs.data.size(); ++id) {
      if (live.deleted.count(static_cast<SequenceId>(id)) == 0) {
        rows.push_back(inputs.data[id]);
        global_of.push_back(static_cast<SequenceId>(id));
      }
    }
    for (const auto& [id, sequence] : live.inserted) {
      if (live.deleted.count(id) == 0) {
        rows.push_back(sequence);
        global_of.push_back(id);
      }
    }
    const Engine ref(Dataset(std::move(rows)), EngineOptions{});
    for (size_t i = 0; i < sampled.size(); ++i) {
      if (sampled[i] == 0) {
        continue;
      }
      const Op& op = inputs.stream[i];
      const Sequence& q = inputs.pool[op.query];
      Answer got;
      if (op.kind == OpKind::kRange) {
        SearchResult r = stack.executor->Submit(op.method, q, op.epsilon).get();
        got.ids = std::move(r.matches);
        got.distances = std::move(r.distances);
        tally(ExactRangeMatches(ref, global_of, q, op.epsilon, got), i);
      } else {
        got.neighbors = stack.executor->SearchKnn(q, op.k).neighbors;
        tally(ExactKnnMatches(ref, global_of, q, op.k, got), i);
      }
    }
    return check;
  }

  // dtw_range checks against LB-Scan on its own Engine; zipf_sharded
  // against LB-Scan on a single Engine built over the same corpus.
  std::unique_ptr<Engine> built;
  const Engine* ref = stack.engine.get();
  if (ref == nullptr) {
    built = std::make_unique<Engine>(Dataset(inputs.data.sequences()),
                                     EngineOptions{});
    ref = built.get();
  }
  const std::vector<SequenceId> global_of = Identity(inputs.data.size());
  for (const auto& [i, got] : answers) {
    const Op& op = inputs.stream[i];
    const Sequence& q = inputs.pool[op.query];
    tally(op.kind == OpKind::kRange
              ? ExactRangeMatches(*ref, global_of, q, op.epsilon, got)
              : ExactKnnMatches(*ref, global_of, q, op.k, got),
          i);
  }
  return check;
}

// ---------------------------------------------------------------------
// Spans: self time per layer, and the one write at the end.

const char* LayerOfSpan(const std::string& name) {
  static const std::map<std::string, const char*> layers = {
      {"exec_submit", "exec"},       {"exec_knn", "exec"},
      {"cache_hit", "cache"},        {"shard", "shard"},
      {"shard_skipped", "shard"},    {"scatter_gather", "shard"},
      {"net_group", "net"},          {"query", "core"},
      {"knn_query", "core"},         {"rtree_search", "rtree"},
      {"candidate_fetch", "storage"}, {"storage_scan", "storage"},
      {"feature_lb_cascade", "plan"}, {"lb_yi_cascade", "plan"},
      {"lb_keogh_cascade", "plan"},  {"lb_improved_cascade", "plan"},
      {"dtw_postfilter", "dtw"},     {"knn_refine", "dtw"},
      {"delta_scan", "ingest"},
  };
  const auto it = layers.find(name);
  return it == layers.end() ? "" : it->second;
}

struct SpanTotals {
  std::map<std::string, std::pair<uint64_t, double>> by_name;  // count, self
  std::map<std::string, double> self_by_layer;
  double delta_scan_ms = 0.0;
  uint64_t shard_spans = 0;
  uint64_t skipped_spans = 0;
};

// Folds every trace of the window into per-layer self time and writes
// them all to `path` as the library's JSON lines (one line per span,
// tagged with the operation's index as "query").
SpanTotals FoldAndWriteSpans(const Window& w, const std::string& path) {
  SpanTotals totals;
  std::ofstream out;
  if (!path.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    out.open(path);
  }
  int64_t op = 0;
  const auto fold = [&](const Trace& trace) {
    const auto& spans = trace.spans();
    const std::vector<double> self = SpanSelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& entry = totals.by_name[spans[i].name];
      ++entry.first;
      entry.second += self[i];
      const char* layer = LayerOfSpan(spans[i].name);
      if (*layer != '\0') {
        totals.self_by_layer[layer] += self[i];
      }
      if (spans[i].name == "delta_scan") {
        totals.delta_scan_ms += spans[i].duration_ms;
      } else if (spans[i].name == "shard") {
        ++totals.shard_spans;
      } else if (spans[i].name == "shard_skipped") {
        ++totals.skipped_spans;
      }
    }
    if (out.is_open()) {
      out << warpindex::TraceToJsonLines(trace, op);
    }
    ++op;
  };
  for (const ClientLog& log : w.clients) {
    for (const Trace& trace : log.traces) {
      fold(trace);
    }
  }
  for (const Trace& trace : w.writes.traces) {
    fold(trace);
  }
  return totals;
}

// ---------------------------------------------------------------------
// Metrics.

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

class MetricSink {
 public:
  explicit MetricSink(std::vector<ReportedMetric>* out) : out_(out) {}

  void Add(const std::string& name, double value, size_t samples,
           const std::string& bypassed = "") {
    ReportedMetric m;
    m.name = name;
    m.unit = UnitOf(name);
    m.samples = samples;
    m.bypassed = bypassed;
    m.value = bypassed.empty() ? value : 0.0;
    out_->push_back(std::move(m));
  }

  void Warn(const std::string& warning) { out_->back().warning = warning; }

  // p-quantile of `values` with the ten-samples-beyond check.
  void AddPercentile(const std::string& name, const std::vector<double>& values,
                     double p, double scale = 1.0,
                     const std::string& bypassed = "") {
    Add(name, Percentile(values, p) * scale, values.size(), bypassed);
    if (bypassed.empty() && !PercentileSupported(values.size(), p)) {
      out_->back().warning =
          "only " + std::to_string(SamplesBeyond(values.size(), p)) +
          " samples beyond p" + FormatDouble(p * 100.0, 0);
    }
  }

 private:
  static std::string UnitOf(const std::string& name) {
    for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const MetricDef& def : *list) {
        if (def.name == name) {
          return def.unit;
        }
      }
    }
    return "";
  }

  std::vector<ReportedMetric>* out_;
};

std::vector<double> Latencies(const Window& w,
                              const std::function<bool(const Sample&)>& keep,
                              double (*field)(const Sample&)) {
  std::vector<double> v;
  for (const ClientLog& log : w.clients) {
    for (const Sample& s : log.samples) {
      if (keep(s)) {
        v.push_back(field(s));
      }
    }
  }
  return v;
}

double LatencyOf(const Sample& s) { return s.latency_ms; }
double WallOf(const Sample& s) { return s.wall_ms; }
double OverheadOf(const Sample& s) { return s.latency_ms - s.wall_ms; }

// The window cut into kSlices equal spans of time. Throughput, CPU per
// operation and medians are computed per slice from the completions that
// fall in it and reported as the median over slices, so a transient
// stall of the shared host moves a minority of slices, not the result.
// p99s take groups of completions instead (AddGroupedP99).
constexpr size_t kSlices = 5;

size_t SliceOf(double done_s, double wall_s) {
  const double at = wall_s > 0.0 ? done_s / wall_s : 0.0;
  return std::min(kSlices - 1, static_cast<size_t>(
                                   std::max(0.0, at) * kSlices));
}

// Process CPU seconds at `t`, interpolated in the sampled series.
double CpuAt(const std::vector<std::pair<double, double>>& series, double t) {
  const auto it = std::lower_bound(
      series.begin(), series.end(), std::make_pair(t, -1.0));
  if (it == series.begin()) {
    return series.empty() ? 0.0 : series.front().second;
  }
  if (it == series.end()) {
    return series.back().second;
  }
  const auto& [t1, c1] = *it;
  const auto& [t0, c0] = *(it - 1);
  return t1 > t0 ? c0 + (c1 - c0) * (t - t0) / (t1 - t0) : c1;
}

double MedianOf(std::vector<double> values) { return Percentile(values, 0.5); }

// Median over slices of each slice's p50; warns when a slice has too few
// samples for its median.
void AddSlicedMedian(const std::string& name,
                     const std::vector<std::vector<double>>& slices,
                     const std::string& bypassed, MetricSink* sink) {
  std::vector<double> medians;
  size_t samples = 0;
  size_t thinnest = SIZE_MAX;
  for (const std::vector<double>& slice : slices) {
    medians.push_back(Percentile(slice, 0.5));
    samples += slice.size();
    thinnest = std::min(thinnest, slice.size());
  }
  sink->Add(name, MedianOf(medians), samples, bypassed);
  if (bypassed.empty() && !PercentileSupported(thinnest, 0.5)) {
    sink->Warn("a slice holds only " + std::to_string(thinnest) +
               " samples for its median");
  }
}

// p99 as the median over consecutive groups of completions (in
// completion order), as many as give each group at least 1000 samples, so
// every group's p99 has ten samples beyond it; under 2000 samples this is
// the pooled p99. Many short groups let the median step over a burst of
// host steal that a few long ones would each contain.
void AddGroupedP99(const std::string& name,
                   std::vector<std::pair<double, double>> done_and_latency,
                   const std::string& bypassed, MetricSink* sink) {
  constexpr size_t kGroupMin = 1000;
  std::sort(done_and_latency.begin(), done_and_latency.end());
  const size_t n = done_and_latency.size();
  const size_t groups = std::max<size_t>(n / kGroupMin, 1);
  std::vector<double> p99s;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> latencies;
    for (size_t i = n * g / groups; i < n * (g + 1) / groups; ++i) {
      latencies.push_back(done_and_latency[i].second);
    }
    p99s.push_back(Percentile(latencies, 0.99));
  }
  sink->Add(name, MedianOf(p99s), n, bypassed);
  if (bypassed.empty() && !PercentileSupported(n / groups, 0.99)) {
    sink->Warn("only " + std::to_string(SamplesBeyond(n / groups, 0.99)) +
               " samples beyond p99");
  }
}

void AddEndToEnd(const WorkloadSpec& spec, const Window& w,
                 const std::vector<double>& setup_s, double rss_mib,
                 uint64_t attempted, uint64_t failed, MetricSink* sink) {
  std::vector<std::vector<double>> range(kSlices), knn(kSlices),
      writes(kSlices);
  std::vector<double> done(kSlices, 0.0);
  std::vector<std::pair<double, double>> range_timed, knn_timed, write_timed;
  for (const ClientLog& log : w.clients) {
    for (const Sample& s : log.samples) {
      const size_t j = SliceOf(s.done_s, w.wall_s);
      const bool is_range = s.kind == OpKind::kRange;
      (is_range ? range : knn)[j].push_back(s.latency_ms);
      (is_range ? range_timed : knn_timed).emplace_back(s.done_s, s.latency_ms);
      done[j] += 1.0;
    }
  }
  for (size_t i = 0; i < w.writes.latency_ms.size(); ++i) {
    const size_t j = SliceOf(w.writes.done_s[i], w.wall_s);
    writes[j].push_back(w.writes.latency_ms[i]);
    write_timed.emplace_back(w.writes.done_s[i], w.writes.latency_ms[i]);
    done[j] += 1.0;
  }
  const double slice_s = w.wall_s / kSlices;
  std::vector<double> qps, cpu_per_op;
  for (size_t j = 0; j < kSlices; ++j) {
    qps.push_back(Ratio(done[j], slice_s));
    cpu_per_op.push_back(
        Ratio((CpuAt(w.cpu_series, slice_s * (j + 1)) -
               CpuAt(w.cpu_series, slice_s * j)) * 1e3,
              done[j]));
  }
  const size_t ops = w.Reads() + w.Writes();
  sink->Add("setup_s", MedianOf(setup_s), setup_s.size());
  sink->Add("qps", MedianOf(qps), ops);
  AddSlicedMedian("range_p50_ms", range, "", sink);
  AddGroupedP99("range_p99_ms", std::move(range_timed), "", sink);
  AddSlicedMedian("knn_p50_ms", knn, "", sink);
  AddGroupedP99("knn_p99_ms", std::move(knn_timed), "", sink);
  const std::string no_writes =
      spec.write_rate > 0.0 ? "" : "no writes in this workload";
  AddSlicedMedian("write_p50_ms", writes, no_writes, sink);
  AddGroupedP99("write_p99_ms", std::move(write_timed), no_writes, sink);
  sink->Add("cpu_ms_per_op", MedianOf(cpu_per_op), ops);
  sink->Add("rss_mb", rss_mib, 1);
  sink->Add("error_ratio",
            Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            attempted);
}

void AddPerLayer(const WorkloadSpec& spec, const Stack& stack, const Window& w,
                 const Window& traced, const SpanTotals& spans,
                 double disk_bytes_per_user_byte, MetricSink* sink) {
  const double reads = static_cast<double>(w.Reads());
  const double writes = static_cast<double>(w.Writes());
  SearchCost cost;
  SearchCost engine_cost;
  double candidates = 0.0;
  double matches = 0.0;
  double engine_range_ops = 0.0;
  for (const ClientLog& log : w.clients) {
    cost.Merge(log.cost);
    engine_cost.Merge(log.engine_cost);
    candidates += static_cast<double>(log.range_candidates);
    matches += static_cast<double>(log.range_matches);
    engine_range_ops += static_cast<double>(log.engine_range_ops);
  }
  const size_t n = w.Reads();

  // dtw
  const double dtw_cpu_ms =
      cost.stages_cpu.Get(warpindex::kStageDtwPostfilter) +
      cost.stages_cpu.Get(warpindex::kStageKnnRefine);
  sink->Add("dtw.ns_per_cell",
            Ratio(dtw_cpu_ms * 1e6, static_cast<double>(cost.dtw_cells)),
            cost.dtw_cells);
  sink->Add("dtw.cells_per_op",
            Ratio(static_cast<double>(cost.dtw_cells), reads), n);
  sink->Add("dtw.evals_per_op",
            Ratio(static_cast<double>(cost.dtw_evals), reads), n);

  // plan (the cascade runs only where the stream asks for it)
  const std::string no_cascade =
      spec.cascade_share > 0.0 ? "" : "no cascade queries in this workload";
  for (const char* stage : {"feature_lb", "lb_yi", "lb_keogh", "lb_improved"}) {
    const std::string key = std::string(stage) + "_cascade";
    const warpindex::StageCounts counts = cost.prunes.Get(key);
    const std::string prefix = std::string("plan.") + stage;
    sink->Add(prefix + ".prune_ratio",
              Ratio(static_cast<double>(counts.pruned),
                    static_cast<double>(counts.in)),
              counts.in, no_cascade);
    sink->Add(prefix + ".ns_per_candidate",
              Ratio(cost.stages_cpu.Get(key) * 1e6,
                    static_cast<double>(counts.in)),
              counts.in, no_cascade);
  }
  sink->AddPercentile(
      "plan.cascade_p50_ms",
      Latencies(
          w,
          [](const Sample& s) {
            return s.method == MethodKind::kTwSimSearchCascade &&
                   s.kind == OpKind::kRange;
          },
          LatencyOf),
      0.5, 1.0, no_cascade);

  // rtree, core, storage
  sink->Add("rtree.nodes_per_op",
            Ratio(static_cast<double>(cost.index_nodes), reads), n);
  sink->Add("rtree.us_per_op",
            Ratio(cost.stages.Get(warpindex::kStageRtreeSearch) * 1e3, reads),
            n);
  sink->Add("core.candidates_per_op", Ratio(candidates, engine_range_ops),
            static_cast<size_t>(engine_range_ops));
  sink->Add("core.match_ratio", Ratio(matches, candidates),
            static_cast<size_t>(candidates));
  sink->AddPercentile("core.tw_p50_ms",
                      Latencies(
                          w,
                          [](const Sample& s) {
                            return s.kind == OpKind::kRange && !s.hit &&
                                   s.method == MethodKind::kTwSimSearch;
                          },
                          WallOf),
                      0.5);
  sink->Add("storage.fetch_us_per_op",
            Ratio(cost.stages.Get(warpindex::kStageCandidateFetch) * 1e3,
                  reads),
            n);
  sink->Add("storage.pages_per_op",
            Ratio(static_cast<double>(cost.io.TotalPageReads()), reads), n);
  sink->Add("storage.disk_bytes_per_user_byte", disk_bytes_per_user_byte, 1,
            stack.kind == StackKind::kWire ? "" : "nothing saved to disk");

  // exec
  uint64_t waits = 0;
  const double queue_wait = HistogramDeltaPercentile(
      HistogramOf(w.registry_before, "warpindex_exec_queue_wait_ms"),
      HistogramOf(w.registry_after, "warpindex_exec_queue_wait_ms"), 0.5,
      &waits);
  sink->Add("exec.queue_wait_ms_p50", queue_wait, waits);
  sink->AddPercentile("exec.overhead_us_p50",
                      Latencies(
                          w,
                          [](const Sample& s) {
                            return s.kind == OpKind::kRange;
                          },
                          OverheadOf),
                      0.5, 1e3);

  // cache
  const std::string no_cache = stack.cache ? "" : "no cache in this stack";
  const double lookups =
      static_cast<double>(w.cache_after.lookups - w.cache_before.lookups);
  sink->Add("cache.hit_ratio",
            Ratio(static_cast<double>(w.cache_after.hits - w.cache_before.hits),
                  lookups),
            static_cast<size_t>(lookups), no_cache);
  sink->AddPercentile(
      "cache.hit_us_p50",
      Latencies(w, [](const Sample& s) { return s.hit; }, LatencyOf), 0.5, 1e3,
      no_cache);
  sink->AddPercentile(
      "cache.miss_ms_p50",
      Latencies(w, [](const Sample& s) { return s.miss; }, LatencyOf), 0.5,
      1.0, no_cache);
  sink->Add("cache.evictions_per_op",
            Ratio(static_cast<double>(w.cache_after.evictions -
                                      w.cache_before.evictions),
                  reads),
            n, no_cache);
  sink->Add("cache.invalidations_per_write",
            Ratio(static_cast<double>(w.cache_after.invalidations -
                                      w.cache_before.invalidations),
                  writes),
            w.Writes(),
            stack.cache && spec.write_rate > 0.0 ? ""
                                                 : "no cached writes here");

  // shard: the sharded engine's warpindex_shard_* totals; the ingest and
  // wire stacks fan out without them, so their "shard" spans are counted.
  const std::string no_shards =
      stack.kind == StackKind::kSingle ? "single engine, no fan-out" : "";
  double subqueries = 0.0;
  double skipped = 0.0;
  double fan_ops = reads;
  if (stack.sharded) {
    subqueries = static_cast<double>(
        CounterValue(w.registry_after, "warpindex_shard_subqueries_total") -
        CounterValue(w.registry_before, "warpindex_shard_subqueries_total"));
    skipped = static_cast<double>(
        CounterValue(w.registry_after, "warpindex_shard_skipped_total") -
        CounterValue(w.registry_before, "warpindex_shard_skipped_total"));
  } else {
    subqueries = static_cast<double>(spans.shard_spans);
    skipped = static_cast<double>(spans.skipped_spans);
    fan_ops = static_cast<double>(traced.Reads());
  }
  sink->Add("shard.subqueries_per_op", Ratio(subqueries, fan_ops), n,
            no_shards);
  sink->Add("shard.skip_ratio", Ratio(skipped, skipped + subqueries), n,
            no_shards);
  sink->Add("shard.cpu_per_wall",
            Ratio(engine_cost.cpu_ms, engine_cost.wall_ms), n);

  // ingest
  const std::string no_ingest =
      stack.ingest ? "" : "no ingest engine in this stack";
  const uint64_t compactions =
      w.health_after.compactions_total - w.health_before.compactions_total;
  sink->Add("ingest.compactions", static_cast<double>(compactions),
            compactions, no_ingest);
  uint64_t compaction_samples = 0;
  const double compaction_ms = HistogramDeltaPercentile(
      HistogramOf(w.registry_before, "warpindex_ingest_compaction_ms"),
      HistogramOf(w.registry_after, "warpindex_ingest_compaction_ms"), 0.5,
      &compaction_samples);
  sink->Add("ingest.compaction_ms_p50", compaction_ms, compaction_samples,
            no_ingest);
  // Base rows rebuilt: each compaction of shard s rewrites that shard's
  // base, counted at its size after the window.
  double rebuilt = 0.0;
  for (size_t s = 0; s < w.health_after.shards.size(); ++s) {
    const uint64_t before = s < w.health_before.shards.size()
                                ? w.health_before.shards[s].compactions
                                : 0;
    rebuilt += static_cast<double>(w.health_after.shards[s].compactions -
                                   before) *
               static_cast<double>(w.health_after.shards[s].base_sequences);
  }
  sink->Add("ingest.rewrite_amp", Ratio(rebuilt, writes), w.Writes(),
            no_ingest);
  sink->Add("ingest.delta_scan_ms_per_op",
            Ratio(spans.delta_scan_ms, static_cast<double>(traced.Reads())),
            traced.Reads(), no_ingest);
  sink->AddPercentile(
      "ingest.read_p95_during_compaction_ms",
      Latencies(w, [](const Sample& s) { return s.during_compaction; },
                LatencyOf),
      0.95, 1.0, no_ingest);

  // net
  const std::string no_net = stack.router ? "" : "no wire in this stack";
  uint64_t server_queries = 0;
  const double server_wall = HistogramDeltaPercentile(
      HistogramOf(w.server_before, "warpindex_net_query_wall_ms"),
      HistogramOf(w.server_after, "warpindex_net_query_wall_ms"), 0.5,
      &server_queries);
  const std::vector<double> router_wall =
      Latencies(w, [](const Sample& s) { return !s.hit; }, WallOf);
  sink->Add("net.overhead_ms_p50", Percentile(router_wall, 0.5) - server_wall,
            router_wall.size(), no_net);
  sink->Add("net.subrequests_per_op",
            Ratio(static_cast<double>(w.router_after.subrequests -
                                      w.router_before.subrequests),
                  reads),
            n, no_net);
  sink->Add("net.retries_per_op",
            Ratio(static_cast<double>(w.router_after.retries -
                                      w.router_before.retries),
                  reads),
            n, no_net);
  sink->Add("net.hedges_per_op",
            Ratio(static_cast<double>(w.router_after.hedges -
                                      w.router_before.hedges),
                  reads),
            n, no_net);
  sink->Add("net.shed_total",
            static_cast<double>(w.shed_after - w.shed_before), n, no_net);

  // obs, load, writes, errors
  sink->Add("obs.trace_overhead_pct",
            Ratio((w.Qps() - traced.Qps()) * 100.0, w.Qps()),
            traced.Reads() + traced.Writes());
  sink->AddPercentile("load.gen_lag_p99_ms", w.writes.lag_ms, 0.99, 1.0,
                      spec.write_rate > 0.0 ? "" : "no open-loop writer");
}

void AddSelfTimes(const Window& traced, const SpanTotals& spans,
                  MetricSink* sink) {
  const double ops = static_cast<double>(traced.Reads() + traced.Writes());
  for (const char* layer : {"exec", "cache", "shard", "net", "core", "rtree",
                            "storage", "plan", "dtw", "ingest"}) {
    const auto it = spans.self_by_layer.find(layer);
    const bool seen = it != spans.self_by_layer.end();
    sink->Add(std::string(layer) + ".self_ms_per_op",
              seen ? Ratio(it->second, ops) : 0.0,
              static_cast<size_t>(ops), seen ? "" : "no spans of this layer");
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

}  // namespace

RunOutput RunWorkload(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  RunOutput out;
  // A traced run splits its time between an untraced window (the
  // per-layer counts and latencies) and a traced one (spans, and the
  // qps the tracing overhead is measured against); both replay the
  // same timed stream.
  const double window_s = config.trace ? config.seconds / 2.0 : config.seconds;
  const Inputs inputs = MakeInputs(spec, config.seed, window_s);
  char line[512];
  std::snprintf(line, sizeof(line), "inputs digest %016llx",
                static_cast<unsigned long long>(InputsDigest(inputs)));
  out.notes.push_back(line);

  // Setup: from the in-memory Dataset to a stack ready to serve. One
  // untimed build first (the first in a process runs slower), then
  // kSetupBuilds timed builds, about half of them before the timed
  // windows (the last of those serves) and the rest after the answer
  // check, so a few seconds of host noise cannot shift them all.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  size_t builds = 0;
  const auto rebuild = [&](bool timed) {
    stack.reset();
    Dataset copy(inputs.data.sequences());
    const std::string db_dir =
        config.work_dir + "/db" + std::to_string(builds++);
    WallTimer timer;
    stack = BuildStack(spec, std::move(copy), db_dir);
    if (timed) {
      setup_s.push_back(timer.ElapsedSeconds());
    }
  };
  const size_t builds_before = (kSetupBuilds + 1) / 2;
  rebuild(false);
  for (size_t b = 0; b < builds_before; ++b) {
    rebuild(true);
  }
  double disk_bytes_per_user_byte = 0.0;
  if (stack->kind == StackKind::kWire) {
    disk_bytes_per_user_byte =
        static_cast<double>(DirectoryBytes(stack->db_dir)) /
        static_cast<double>(spec.corpus * spec.length * sizeof(double));
  }

  // Untimed warm-up prefix of the stream. On ingest_mixed the writer runs
  // through it too, for write_warmup_s, until the first rounds of
  // compaction are behind it: reads slow down once compacted bases serve,
  // and the timed window should see that steady state, not the change.
  LiveSet live;
  const auto writes_in = [&](double seconds) {
    return static_cast<size_t>(spec.write_rate * seconds);
  };
  size_t next_write = writes_in(spec.write_warmup_s);
  RunWindow(*stack, inputs, spec, config.seed, 0, inputs.warmup, 0,
            next_write, false, nullptr, &live);

  const std::vector<char> sampled =
      SampleOps(inputs.warmup, inputs.stream.size(), config.seed);
  // ingest_mixed answers move with the writes, so its sample is checked
  // at the quiescent end instead of recorded here.
  const Window w = RunWindow(
      *stack, inputs, spec, config.seed, inputs.warmup, inputs.stream.size(),
      next_write, writes_in(window_s), false,
      spec.stack == StackKind::kIngest ? nullptr : &sampled, &live);
  next_write += writes_in(window_s);
  const double rss_mib = PeakRssMiB();
  Window traced;
  if (config.trace) {
    traced = RunWindow(*stack, inputs, spec, config.seed, inputs.warmup,
                       inputs.stream.size(), next_write, writes_in(window_s),
                       true, nullptr, &live);
  }

  const CheckResult check = CheckAnswers(*stack, inputs, sampled, w, live);
  out.checked = check.checked;
  out.mismatched = check.mismatched;
  while (setup_s.size() < kSetupBuilds) {
    rebuild(true);
  }
  std::string build_times =
      "setup: one untimed build, then " + std::to_string(kSetupBuilds) +
      " timed, " + std::to_string(builds_before) +
      " before the timed window and the rest after the answer check (s):";
  for (const double s : setup_s) {
    build_times += " " + FormatDouble(s, 4);
  }
  out.notes.push_back(build_times);

  // Failures: exceptions, non-OK wire outcomes, admission sheds, wrong
  // answers, counted against the operations attempted.
  const Window& measured = w;
  uint64_t wire_failures = 0;
  if (stack->router) {
    wire_failures = (measured.router_after.failed_subrequests -
                     measured.router_before.failed_subrequests) +
                    (measured.shed_after - measured.shed_before);
  }
  out.attempted = measured.Reads() + measured.Writes() + measured.Failed();
  out.failed = measured.Failed() + wire_failures + check.mismatched;

  MetricSink sink(&out.metrics);
  AddEndToEnd(spec, measured, setup_s, rss_mib, out.attempted, out.failed,
              &sink);
  if (config.trace) {
    const SpanTotals spans = FoldAndWriteSpans(traced, config.trace_path);
    AddPerLayer(spec, *stack, measured, traced, spans,
                disk_bytes_per_user_byte, &sink);
    AddSelfTimes(traced, spans, &sink);
    out.notes.push_back("spans written to " + config.trace_path);
    for (const auto& [name, entry] : spans.by_name) {
      std::snprintf(line, sizeof(line),
                    "span %-22s count %9llu  self %10.5f ms/op", name.c_str(),
                    static_cast<unsigned long long>(entry.first),
                    Ratio(entry.second, static_cast<double>(traced.Reads() +
                                                            traced.Writes())));
      out.notes.push_back(line);
    }
  }

  size_t range_ops = 0;
  size_t knn_ops = 0;
  size_t hits = 0;
  for (const ClientLog& log : measured.clients) {
    for (const Sample& s : log.samples) {
      (s.kind == OpKind::kRange ? range_ops : knn_ops) += 1;
      hits += s.hit ? 1 : 0;
    }
  }
  std::snprintf(line, sizeof(line),
                "window %.3f s, stream of %zu timed ops after %zu warm-up: "
                "%zu range, %zu knn, %zu writes (%llu inserts, %llu "
                "deletes), %zu cache hits",
                measured.wall_s, inputs.stream.size() - inputs.warmup,
                inputs.warmup, range_ops, knn_ops, measured.Writes(),
                static_cast<unsigned long long>(measured.writes.inserts),
                static_cast<unsigned long long>(measured.writes.deletes), hits);
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "host steal during the window: %.2f%% of the machine's CPU "
                "time (/proc/stat)",
                measured.steal_share * 100.0);
  out.notes.push_back(line);
  if (stack->cache) {
    const SemanticCacheStats& stats = measured.cache_after;
    const double entry_bytes = Ratio(static_cast<double>(stats.bytes),
                                     static_cast<double>(stats.entries));
    std::snprintf(line, sizeof(line),
                  "cache budget %zu bytes vs pool answer bytes ~%.0f "
                  "(%zu queries x 2 entries, range and kNN, x %.0f bytes "
                  "per cached entry)",
                  spec.cache_bytes,
                  2.0 * entry_bytes * static_cast<double>(inputs.pool.size()),
                  inputs.pool.size(), entry_bytes);
    out.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line), "answer check: %llu checked, %llu wrong",
                static_cast<unsigned long long>(check.checked),
                static_cast<unsigned long long>(check.mismatched));
  out.notes.push_back(line);
  return out;
}

}  // namespace perfbench
