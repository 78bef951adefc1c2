// perfbench_harness: runs one workload of the end-to-end benchmark.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--source_digest <id>] [--work_dir <dir>]
//
// Prints provenance and every metric (value, unit, sample count) as
// human-readable lines, then, as its last line, one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits nonzero when an answer is wrong or an operation failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_math.h"
#include "serving.h"
#include "workload.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Join(const std::vector<double>& values) {
  std::string s;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%g", s.empty() ? "" : ",", v);
    s += buf;
  }
  return s;
}

void PrintProvenance(const RunConfig& config, const std::string& digest) {
  const WorkloadSpec& spec = *config.spec;
  std::printf("# workload %s: %s\n", spec.name.c_str(), spec.why.c_str());
  std::printf("# cpu %s, nproc %u\n", CpuModel().c_str(),
              std::thread::hardware_concurrency());
  std::printf("# compiler %s, build %s, source %s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE, digest.c_str());
  std::printf("# seed %llu, seconds %g, trace %d\n",
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  const size_t timed =
      TimedOps(spec, config.trace ? config.seconds / 2.0 : config.seconds);
  std::printf("# corpus %zu random walks x %zu; queries: ", spec.corpus,
              spec.length);
  if (spec.zipf_pool > 0) {
    std::printf("%zu tenant(s), each Zipf(1.0) over its own pool of %zu",
                spec.tenants, spec.zipf_pool);
  } else {
    std::printf("uniform, every one distinct");
  }
  std::printf("; stream: %zu warm-up + %zu timed ops (%g/s nominal)%s\n",
              spec.warmup_ops, timed, spec.nominal_qps,
              config.trace ? ", replayed untraced then traced" : "");
  std::string ks;
  for (const uint32_t k : spec.knn_k) {
    if (!ks.empty()) {
      ks += ",";
    }
    ks += std::to_string(k);
  }
  std::printf(
      "# ops: %.0f%% kNN (k in {%s}), %.0f%% range (eps in {%s}, %.0f%% of "
      "them on the cascade); L_inf base distance, unconstrained DTW\n",
      spec.knn_share * 100.0, ks.c_str(), (1.0 - spec.knn_share) * 100.0,
      Join(spec.epsilons).c_str(), spec.cascade_share * 100.0);
  std::printf("# load: closed loop, 2 clients, executor pool of 2 workers");
  if (spec.cache_bytes > 0) {
    std::printf(", executor cache %zu bytes", spec.cache_bytes);
  }
  if (spec.write_rate > 0.0) {
    std::printf(
        "; open-loop writer %.0f writes/s, every %zu-th a delete, "
        "compaction at %zu delta entries on the executor pool; the window "
        "is the writer's schedule (%g s of untimed writes first) and the "
        "readers wrap around the stream until its last write is "
        "acknowledged",
        spec.write_rate, spec.delete_every, spec.compact_entries,
        spec.write_warmup_s);
  }
  std::printf("\n");
}

bool InList(const std::vector<MetricDef>& list, const std::string& name) {
  for (const MetricDef& def : list) {
    if (def.name == name) {
      return true;
    }
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source_digest <id>] "
               "[--work_dir <dir>]\nworkloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  std::string digest = "unknown";
  std::string work_dir = ".bench_build/perfbench";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--source_digest") {
      digest = value;
    } else if (flag == "--work_dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  config.spec = FindWorkload(workload);
  if (config.spec == nullptr || !have_seed || !(config.seconds > 0.0) ||
      argc % 2 == 0) {
    return Usage();
  }
  config.work_dir = work_dir + "/run-" + std::to_string(getpid());
  config.trace_path = work_dir + "/traces/" + workload + "-seed" +
                      std::to_string(config.seed) + ".jsonl";

  PrintProvenance(config, digest);
  std::fflush(stdout);
  const RunOutput out = RunWorkload(config);
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);
  for (const std::string& note : out.notes) {
    std::printf("# %s\n", note.c_str());
  }

  const std::vector<MetricDef>& result_set =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics_json;
  for (const ReportedMetric& m : out.metrics) {
    std::printf("metric %-40s %14.6f %-5s n=%zu%s%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples,
                m.bypassed.empty() ? "" : "  (bypassed: ",
                m.bypassed.c_str(), m.bypassed.empty() ? "" : ")");
    if (!m.warning.empty()) {
      std::printf("warning: %s: %s\n", m.name.c_str(), m.warning.c_str());
    }
    if (!InList(result_set, m.name)) {
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics_json += buf;
  }
  const bool correct = out.failed == 0 && out.mismatched == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
