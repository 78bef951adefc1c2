// Small, self-tested pieces of the benchmark harness: percentiles and the
// ten-samples-beyond rule, percentiles of a histogram delta, span self
// time, and the catalogue of reported metrics.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

// A percentile needs at least this many samples strictly beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

// Samples at ranks above the p-quantile of n samples: n - ceil(p * n).
size_t SamplesBeyond(size_t n, double p);

// True when n samples leave at least kMinSamplesBeyond beyond the
// p-quantile (p = 0.99 needs n >= 1000).
bool PercentileSupported(size_t n, double p);

// p-quantile of the observations a histogram gained between two
// snapshots of it, interpolated inside the bucket that holds the rank.
// The first bucket's lower edge is 0; the overflow bucket reports its
// lower edge. `count` receives the number of observations in the delta.
double HistogramDeltaPercentile(const warpindex::Histogram::Snapshot& before,
                                const warpindex::Histogram::Snapshot& after,
                                double p, uint64_t* count);

// Self time of every span of one trace: its duration minus the part of
// its own interval covered by the union of its children's intervals
// (children that ran in parallel overlap, so they are merged, not
// summed; a child sticking out of its parent is clipped).
std::vector<double> SpanSelfTimes(
    const std::vector<warpindex::TraceSpan>& spans);

// Metric names: [A-Za-z0-9_.-]+, at most 64 characters, starting with a
// letter or a digit.
bool ValidMetricName(const std::string& name);

struct MetricDef {
  std::string name;
  std::string unit;
};

// The metrics the harness prints in its result line: the end-to-end set
// with --trace 0, the per-layer set with --trace 1. BENCHMARK.json lists
// the same names (the self-test checks it).
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
