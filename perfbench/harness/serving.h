// Builds one workload's serving stack through the public API, replays
// the seeded operation stream against it, checks a seeded sample of the
// answers and derives every reported metric.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Scratch directory for saved databases (removed before returning).
  std::string work_dir;
  // Where a traced run writes its spans (JSON lines), once, at the end.
  std::string trace_path;
};

struct ReportedMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // operations or observations behind the value
  // Empty when the metric applies to the workload; otherwise why it
  // reads 0 (the result line must still carry it).
  std::string bypassed;
  // Non-empty when a percentile lacks ten samples beyond it.
  std::string warning;
};

struct RunOutput {
  std::vector<ReportedMetric> metrics;
  // Human-readable lines: sizes, sample counts, per-span self times.
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;     // answers compared against the exact path
  uint64_t mismatched = 0;  // of those, wrong (also counted in failed)
};

RunOutput RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
