// perfbench_selftest: checks the harness's own logic.
//
//   perfbench_selftest [path/to/BENCHMARK.json]
//
// Covers seeded input generation, Zipf(1.0) rank frequencies, the
// ten-samples-beyond rule for percentiles, span self-time arithmetic,
// metric names, and (given BENCHMARK.json) that the file lists exactly
// the metrics the harness prints. Exits nonzero on the first failure.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_math.h"
#include "common/workload.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

WorkloadSpec Small(const std::string& name) {
  WorkloadSpec spec = *FindWorkload(name);
  spec.corpus = 300;
  spec.length = 32;
  spec.zipf_pool = std::min<size_t>(spec.zipf_pool, 64);
  spec.nominal_qps = 50.0;
  spec.warmup_ops = 20;
  return spec;
}

bool SameStream(const Inputs& a, const Inputs& b) {
  if (a.stream.size() != b.stream.size()) {
    return false;
  }
  for (size_t i = 0; i < a.stream.size(); ++i) {
    const Op& x = a.stream[i];
    const Op& y = b.stream[i];
    if (x.kind != y.kind || x.query != y.query || x.method != y.method ||
        x.epsilon != y.epsilon || x.k != y.k) {
      return false;
    }
  }
  return true;
}

void TestSeededInputs() {
  for (const WorkloadSpec& full : Workloads()) {
    const WorkloadSpec spec = Small(full.name);
    const Inputs a = MakeInputs(spec, 11, 10.0);
    const Inputs b = MakeInputs(spec, 11, 10.0);
    const Inputs c = MakeInputs(spec, 12, 10.0);
    Check(a.stream.size() == 520 && a.warmup == 20,
          spec.name + ": warm-up plus nominal rate x seconds ops");
    Check(InputsDigest(a) == InputsDigest(b),
          spec.name + ": same seed gives the same inputs");
    Check(SameStream(a, b), spec.name + ": same seed gives the same stream");
    Check(a.data[0].elements() == b.data[0].elements() &&
              a.pool.back().elements() == b.pool.back().elements(),
          spec.name + ": same seed gives the same data and pool");
    Check(!SameStream(a, c), spec.name + ": another seed, another stream");
    Check(InputsDigest(a) != InputsDigest(c),
          spec.name + ": another seed, other inputs");
    Check(MakeWritePayload(a.data, 11, 7).elements() ==
              MakeWritePayload(b.data, 11, 7).elements(),
          spec.name + ": write payloads are seeded");
    size_t knn = 0;
    for (const Op& op : a.stream) {
      knn += op.kind == OpKind::kKnn ? 1 : 0;
    }
    const double share = static_cast<double>(knn) / a.stream.size();
    Check(std::fabs(share - spec.knn_share) < 0.08,
          spec.name + ": kNN share follows the spec");
  }
}

void TestZipf() {
  const size_t n = 100;
  warpindex::bench::ZipfianSampler zipf(
      warpindex::bench::ZipfianOptions{.num_items = n, .skew = 1.0, .seed = 5});
  std::vector<double> counts(n, 0.0);
  const size_t draws = 400000;
  for (size_t i = 0; i < draws; ++i) {
    counts[zipf.Next()] += 1.0;
  }
  double harmonic = 0.0;
  for (size_t r = 1; r <= n; ++r) {
    harmonic += 1.0 / static_cast<double>(r);
  }
  for (size_t r = 1; r <= 10; ++r) {
    const double expected = draws / (static_cast<double>(r) * harmonic);
    Check(std::fabs(counts[r - 1] - expected) < 0.03 * expected,
          "Zipf(1.0) frequency of rank " + std::to_string(r) +
              " follows 1/rank");
  }
  Check(counts[0] / counts[1] > 1.9 && counts[0] / counts[1] < 2.1,
        "Zipf(1.0): rank 1 twice as frequent as rank 2");
  Check(counts[n - 1] > 0.0, "Zipf sampler reaches the last rank");
}

void TestPercentileSupport() {
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Check(PercentileSupported(1000, 0.99), "p99 of 1000 samples is supported");
  Check(!PercentileSupported(999, 0.99), "p99 of 999 samples is not");
  Check(PercentileSupported(20, 0.5), "p50 of 20 samples is supported");
  Check(!PercentileSupported(19, 0.5), "p50 of 19 samples is not");
  Check(!PercentileSupported(0, 0.5), "no samples support nothing");
  warpindex::Histogram h({1.0, 2.0, 4.0});
  const auto before = h.TakeSnapshot();
  for (const double x : {0.5, 1.5, 1.5, 3.0}) {
    h.Observe(x);
  }
  uint64_t count = 0;
  const double median =
      HistogramDeltaPercentile(before, h.TakeSnapshot(), 0.5, &count);
  Check(count == 4, "histogram delta counts the new observations");
  Check(median == 1.5, "histogram delta median interpolates in its bucket");
}

warpindex::TraceSpan Span(const char* name, int parent, double start,
                          double duration) {
  warpindex::TraceSpan span;
  span.name = name;
  span.parent = parent;
  span.start_ms = start;
  span.duration_ms = duration;
  return span;
}

void TestSelfTime() {
  // root [0,10): children a [1,4) and b [3,6) overlap (parallel shards),
  // c [8,12) sticks out of the root; a has child d [2,3).
  const std::vector<warpindex::TraceSpan> spans = {
      Span("root", -1, 0.0, 10.0), Span("a", 0, 1.0, 3.0),
      Span("b", 0, 3.0, 3.0),      Span("c", 0, 8.0, 4.0),
      Span("d", 1, 2.0, 1.0),
  };
  const std::vector<double> self = SpanSelfTimes(spans);
  Check(std::fabs(self[0] - 3.0) < 1e-12,
        "root self time: 10 - union([1,6),[8,10)) = 3");
  Check(std::fabs(self[1] - 2.0) < 1e-12, "a self time: 3 - 1 = 2");
  Check(std::fabs(self[2] - 3.0) < 1e-12, "leaf self time is its duration");
  Check(std::fabs(self[4] - 1.0) < 1e-12, "nested leaf self time");
}

// Names (and units) listed under `key` in BENCHMARK.json.
std::vector<MetricDef> ListedMetrics(const std::string& json,
                                     const std::string& key) {
  std::vector<MetricDef> out;
  const size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) {
    return out;
  }
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  const std::string block = json.substr(open, close - open);
  const std::regex entry(
      "\"name\"\\s*:\\s*\"([^\"]*)\"\\s*,\\s*\"unit\"\\s*:\\s*\"([^\"]*)\"");
  for (std::sregex_iterator it(block.begin(), block.end(), entry), end;
       it != end; ++it) {
    out.push_back({(*it)[1], (*it)[2]});
  }
  return out;
}

void TestMetricNames(const char* benchmark_json) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *list) {
      Check(ValidMetricName(def.name), "valid metric name: " + def.name);
      Check(seen.insert(def.name).second, "metric name used once: " + def.name);
      Check(!def.unit.empty() && def.unit.size() <= 16,
            "metric has a unit: " + def.name);
    }
  }
  Check(!ValidMetricName(".x") && !ValidMetricName("a b") &&
            !ValidMetricName(std::string(65, 'a')),
        "invalid names are rejected");
  if (benchmark_json == nullptr) {
    return;
  }
  std::ifstream in(benchmark_json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  Check(!json.empty(), std::string("read ") + benchmark_json);
  for (const auto& [key, list] :
       {std::pair{"end_to_end", &EndToEndMetrics()},
        std::pair{"per_layer", &PerLayerMetrics()}}) {
    const std::vector<MetricDef> listed = ListedMetrics(json, key);
    bool same = listed.size() == list->size();
    for (size_t i = 0; same && i < listed.size(); ++i) {
      same = listed[i].name == (*list)[i].name &&
             listed[i].unit == (*list)[i].unit;
    }
    Check(same, std::string("BENCHMARK.json ") + key +
                    " lists exactly the harness's metrics");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::TestSeededInputs();
  perfbench::TestZipf();
  perfbench::TestPercentileSupport();
  perfbench::TestSelfTime();
  perfbench::TestMetricNames(argc > 1 ? argv[1] : nullptr);
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
