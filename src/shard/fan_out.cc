#include "shard/fan_out.h"

#include <algorithm>
#include <array>

#include "shard/scatter_gather.h"

namespace warpindex {
namespace {

const std::vector<SequenceId>* DeadOf(const FanOutHooks& hooks, size_t s) {
  return s < hooks.dead.size() ? hooks.dead[s] : nullptr;
}

bool IsDead(const std::vector<SequenceId>* dead, SequenceId id) {
  return dead != nullptr && std::binary_search(dead->begin(), dead->end(), id);
}

}  // namespace

void FanOut::Scatter(size_t num_shards, const std::vector<size_t>& visit,
                     const FanOutHooks& hooks, const Task& task) {
  // `visit` is ascending, so one cursor finds the skipped shards.
  std::vector<size_t> skipped;
  for (size_t s = 0, cursor = 0; s < num_shards; ++s) {
    if (cursor < visit.size() && visit[cursor] == s) {
      ++cursor;
    } else {
      skipped.push_back(s);
      if (hooks.on_skip) {
        hooks.on_skip(s);
      }
    }
  }

  ScopedSpan span(trace_, "scatter_gather");
  if (trace_ != nullptr) {
    trace_->AddCounter("shard_fanout", static_cast<double>(visit.size()));
    trace_->AddCounter("shards_skipped", static_cast<double>(skipped.size()));
    for (const auto& [name, value] : hooks.labels) {
      trace_->AddCounter(name, value);
    }
    for (const size_t s : skipped) {
      trace_->SetThreadTag(static_cast<int32_t>(s), 0);
      const size_t marker = trace_->BeginSpan("shard_skipped");
      trace_->AddCounter("shard_index", static_cast<double>(s));
      trace_->EndSpan(marker);
    }
    trace_->SetThreadTag(-1, 0);
  }

  // A Trace is single-writer, so each task records into its own child
  // built from the scatter_gather span's context (same trace id, same
  // clock zero); the children are adopted in shard order afterwards.
  std::vector<Trace> subs;
  if (trace_ != nullptr) {
    subs.assign(visit.size(), Trace(trace_->ContextForSpan(span.index())));
  }
  const ThreadCpuTimer fanout_cpu;
  ScatterGather(pool_).Run(visit.size(), [&](size_t i) {
    const size_t s = visit[i];
    Trace* sub = trace_ != nullptr ? &subs[i] : nullptr;
    size_t shard_span = 0;
    if (sub != nullptr) {
      sub->SetThreadTag(
          static_cast<int32_t>(s),
          static_cast<uint32_t>(ThreadPool::current_worker_index() + 1));
      shard_span = sub->BeginSpan("shard");
      sub->AddCounter("shard_index", static_cast<double>(s));
    }
    task(i, s, sub);
    if (sub != nullptr) {
      sub->EndSpan(shard_span);
    }
  });
  fanout_cpu_ms_ += fanout_cpu.ElapsedMillis();
  for (const Trace& sub : subs) {
    trace_->Adopt(span.index(), sub);
  }
}

void FanOut::Finish(SearchCost* cost) const {
  cost->wall_ms = wall_.ElapsedMillis();
  cost->cpu_ms += std::max(0.0, cpu_.ElapsedMillis() - fanout_cpu_ms_);
}

SearchResult FanOut::Range(const std::vector<BaseShard>& shards,
                           MethodKind kind, const Sequence& query,
                           double epsilon, const FanOutHooks& hooks) {
  const std::array<double, kFeatureDims> feature =
      ExtractFeature(query).AsPoint();
  const Point feature_point = Point::FromArray(feature.data(), kFeatureDims);
  std::vector<size_t> visit;
  std::vector<bool> search_base(shards.size(), false);
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardFeatureBounds& bounds = shards[s].bounds;
    search_base[s] =
        bounds.valid && bounds.mbr.MinDistLinf(feature_point) <= epsilon;
    if (search_base[s] || (hooks.has_extra && hooks.has_extra(s))) {
      visit.push_back(s);
    }
  }

  struct Part {
    SearchResult base;
    SearchResult extra;
  };
  std::vector<Part> parts(visit.size());
  Scatter(shards.size(), visit, hooks, [&](size_t i, size_t s, Trace* sub) {
    DtwScratch scratch;
    SearchResult& base = parts[i].base;
    if (search_base[s]) {
      base = shards[s].engine->SearchWith(kind, query, epsilon, sub, &scratch);
      if (sub != nullptr) {
        sub->AddCounter("candidates", static_cast<double>(base.num_candidates));
        sub->AddCounter("matches", static_cast<double>(base.matches.size()));
        sub->AddCounter("index_nodes",
                        static_cast<double>(base.cost.index_nodes));
        sub->AddCounter("dtw_evals", static_cast<double>(base.cost.dtw_evals));
      }
    }
    if (hooks.extra_range) {
      parts[i].extra = hooks.extra_range(s, sub, &scratch);
    }
    if (hooks.on_visit) {
      hooks.on_visit(s, search_base[s] ? &base : nullptr);
    }
  });

  SearchResult result;
  for (size_t i = 0; i < visit.size(); ++i) {
    const std::vector<SequenceId>& global_of = *shards[visit[i]].global_of;
    const std::vector<SequenceId>* dead = DeadOf(hooks, visit[i]);
    const Part& part = parts[i];
    result.num_candidates +=
        part.base.num_candidates + part.extra.num_candidates;
    for (size_t m = 0; m < part.base.matches.size(); ++m) {
      const SequenceId id =
          global_of[static_cast<size_t>(part.base.matches[m])];
      if (IsDead(dead, id)) {
        continue;
      }
      result.matches.push_back(id);
      // Every method records distances; a result without them is
      // canonicalized to ids only below.
      if (m < part.base.distances.size()) {
        result.distances.push_back(part.base.distances[m]);
      }
    }
    result.matches.insert(result.matches.end(), part.extra.matches.begin(),
                          part.extra.matches.end());
    result.distances.insert(result.distances.end(),
                            part.extra.distances.begin(),
                            part.extra.distances.end());
    // A shard's base and extra searches ran one after the other on its
    // task; across tasks they overlapped.
    SearchCost task_cost = part.base.cost;
    task_cost.Merge(part.extra.cost);
    result.cost.MergeParallel(task_cost);
  }
  CanonicalizeMatchOrder(&result);
  Finish(&result.cost);
  return result;
}

KnnResult FanOut::Knn(const std::vector<BaseShard>& shards,
                      const Sequence& query, size_t k, SharedKnnBound* bound,
                      KnnResult extra, const FanOutHooks& hooks) {
  std::vector<size_t> visit;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].bounds.valid) {
      visit.push_back(s);
    }
  }
  std::vector<KnnResult> partials(visit.size());
  Scatter(shards.size(), visit, hooks, [&](size_t i, size_t s, Trace* sub) {
    const size_t k_s = hooks.base_k ? hooks.base_k(s) : k;
    partials[i] = shards[s].engine->SearchKnnBounded(query, k_s, sub, bound);
    if (sub != nullptr) {
      sub->AddCounter("neighbors",
                      static_cast<double>(partials[i].neighbors.size()));
      sub->AddCounter("refined", static_cast<double>(partials[i].num_refined));
    }
    if (hooks.on_visit) {
      hooks.on_visit(s, nullptr);
    }
  });

  // Per-shard lists may vary with bound-propagation timing, but only by
  // members the global top-k provably excludes, so the merged prefix is
  // deterministic (see docs/SHARDING.md).
  KnnResult result;
  result.num_refined = extra.num_refined;
  result.cost = extra.cost;
  std::vector<KnnMatch> merged = std::move(extra.neighbors);
  for (size_t i = 0; i < visit.size(); ++i) {
    const std::vector<SequenceId>& global_of = *shards[visit[i]].global_of;
    const std::vector<SequenceId>* dead = DeadOf(hooks, visit[i]);
    result.num_refined += partials[i].num_refined;
    result.cost.MergeParallel(partials[i].cost);
    for (KnnMatch match : partials[i].neighbors) {
      match.id = global_of[static_cast<size_t>(match.id)];
      if (!IsDead(dead, match.id)) {
        merged.push_back(match);
      }
    }
  }
  std::sort(merged.begin(), merged.end(), KnnMatchOrder);
  if (merged.size() > k) {
    merged.resize(k);
  }
  result.neighbors = std::move(merged);
  Finish(&result.cost);
  return result;
}

}  // namespace warpindex
