#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

size_t SamplesBeyond(size_t n, double p) {
  const double at = std::ceil(p * static_cast<double>(n) - 1e-9);
  const size_t rank = static_cast<size_t>(std::max(0.0, at));
  return rank >= n ? 0 : n - rank;
}

bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

double HistogramDeltaPercentile(const warpindex::Histogram::Snapshot& before,
                                const warpindex::Histogram::Snapshot& after,
                                double p, uint64_t* count) {
  std::vector<uint64_t> delta(after.bucket_counts.size(), 0);
  uint64_t total = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    const uint64_t was =
        i < before.bucket_counts.size() ? before.bucket_counts[i] : 0;
    delta[i] = after.bucket_counts[i] - was;
    total += delta[i];
  }
  if (count != nullptr) {
    *count = total;
  }
  if (total == 0) {
    return 0.0;
  }
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) {
      continue;
    }
    const double lower = i == 0 ? 0.0 : after.boundaries[i - 1];
    if (i >= after.boundaries.size()) {
      return lower;  // overflow bucket: no upper edge
    }
    if (static_cast<double>(cumulative + delta[i]) >= rank) {
      const double fraction = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(delta[i]);
      return lower + (after.boundaries[i] - lower) * fraction;
    }
    cumulative += delta[i];
  }
  return after.boundaries.empty() ? 0.0 : after.boundaries.back();
}

std::vector<double> SpanSelfTimes(
    const std::vector<warpindex::TraceSpan>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const warpindex::TraceSpan& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(
          span.start_ms, span.start_ms + span.duration_ms);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double begin = spans[i].start_ms;
    const double end = begin + spans[i].duration_ms;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [child_begin, child_end] : intervals) {
      const double b = std::max(child_begin, begin);
      const double e = std::min(child_end, end);
      if (e <= b) {
        continue;
      }
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) {
        covered += run_end - run_begin;
      }
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) {
      covered += run_end - run_begin;
    }
    self[i] = std::max(0.0, spans[i].duration_ms - covered);
  }
  return self;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},           {"qps", "1/s"},
      {"range_p50_ms", "ms"},     {"range_p99_ms", "ms"},
      {"knn_p50_ms", "ms"},       {"knn_p99_ms", "ms"},
      {"cpu_ms_per_op", "ms"},    {"rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> m = {
        {"dtw.ns_per_cell", "ns"},
        {"dtw.cells_per_op", "count"},
        {"dtw.evals_per_op", "count"},
    };
    for (const char* stage : {"feature_lb", "lb_yi", "lb_keogh",
                              "lb_improved"}) {
      m.push_back({std::string("plan.") + stage + ".prune_ratio", "ratio"});
      m.push_back({std::string("plan.") + stage + ".ns_per_candidate", "ns"});
    }
    const std::vector<MetricDef> rest = {
        {"plan.cascade_p50_ms", "ms"},
        {"rtree.nodes_per_op", "count"},
        {"rtree.us_per_op", "us"},
        {"core.candidates_per_op", "count"},
        {"core.match_ratio", "ratio"},
        {"core.tw_p50_ms", "ms"},
        {"storage.fetch_us_per_op", "us"},
        {"storage.pages_per_op", "count"},
        {"storage.disk_bytes_per_user_byte", "ratio"},
        {"exec.queue_wait_ms_p50", "ms"},
        {"exec.overhead_us_p50", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.hit_us_p50", "us"},
        {"cache.miss_ms_p50", "ms"},
        {"cache.evictions_per_op", "count"},
        {"cache.invalidations_per_write", "count"},
        {"shard.subqueries_per_op", "count"},
        {"shard.skip_ratio", "ratio"},
        {"shard.cpu_per_wall", "ratio"},
        {"ingest.compactions", "count"},
        {"ingest.compaction_ms_p50", "ms"},
        {"ingest.rewrite_amp", "ratio"},
        {"ingest.delta_scan_ms_per_op", "ms"},
        {"ingest.read_p95_during_compaction_ms", "ms"},
        {"net.overhead_ms_p50", "ms"},
        {"net.subrequests_per_op", "count"},
        {"net.retries_per_op", "count"},
        {"net.hedges_per_op", "count"},
        {"net.shed_total", "count"},
        {"obs.trace_overhead_pct", "%"},
        {"load.gen_lag_p99_ms", "ms"},
        {"write_p50_ms", "ms"},
        {"write_p99_ms", "ms"},
        {"error_ratio", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char* layer : {"exec", "cache", "shard", "net", "core",
                              "rtree", "storage", "plan", "dtw", "ingest"}) {
      m.push_back({std::string(layer) + ".self_ms_per_op", "ms"});
    }
    return m;
  }();
  return metrics;
}

}  // namespace perfbench
