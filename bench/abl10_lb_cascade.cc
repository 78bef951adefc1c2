// Ablation A10: the lower-bound filter cascade (src/plan/).
//
// Sweeps fixed stage subsets of the cascade — none (the paper's
// Algorithm 1), each bound alone, and the full pipeline — over a banded
// random-walk workload, reporting per-stage pruning counters and the
// headline metric: exact-DTW evaluations started per query. Every plan's
// answers are cross-validated against plain TW-Sim-Search at the same
// tolerance (the cascade's no-false-dismissal contract), so rows differ
// only in cost; any disagreement exits 1. With --metrics_json the
// per-(eps, plan) rows are also written as JSON lines including the
// prune breakdown.
//
// A Sakoe-Chiba band (--band >= 0) is the showcase configuration: with an
// unconstrained DTW the per-position envelope degenerates toward LB_Yi's
// global envelope and the later stages stop earning their keep (see
// docs/PLANNER.md).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "plan/filter_cascade.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

struct PlanCase {
  std::string label;
  CascadePlan plan;
};

std::vector<PlanCase> PlanCases() {
  using S = CascadeStage;
  return {
      {"paper", CascadePlan::Paper()},
      {"yi", CascadePlan{{S::kLbYi}}},
      {"keogh", CascadePlan{{S::kLbKeogh}}},
      {"improved", CascadePlan{{S::kLbImproved}}},
      {"keogh+impr", CascadePlan{{S::kLbKeogh, S::kLbImproved}}},
      {"full", CascadePlan::Full()},
  };
}

uint64_t PrunedAt(const bench::WorkloadSummary& summary,
                  std::string_view stage) {
  return summary.total_prunes.Get(stage).pruned;
}

int Run(int argc, char** argv) {
  int64_t num_sequences = 4000;
  int64_t length = 100;
  int64_t band = 8;
  int64_t num_queries = 100;
  std::string eps_list = "0.2,0.5,1.0";
  std::string metrics_json;

  FlagSet flags("abl10_lb_cascade");
  flags.AddInt64("n", &num_sequences, "number of sequences");
  flags.AddInt64("len", &length, "sequence length");
  flags.AddInt64("band", &band, "Sakoe-Chiba radius (<0 unconstrained)");
  flags.AddInt64("queries", &num_queries, "queries per configuration");
  flags.AddString("eps", &eps_list, "tolerance sweep");
  flags.AddString("metrics_json", &metrics_json,
                  "write per-row JSON lines to this file");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  RandomWalkOptions rw;
  rw.num_sequences = static_cast<size_t>(num_sequences);
  rw.min_length = static_cast<size_t>(length);
  rw.max_length = static_cast<size_t>(length);
  const Dataset dataset = GenerateRandomWalkDataset(rw);

  bench::PrintPreamble(
      "Ablation A10: lower-bound filter cascade",
      "extension of Kim/Park/Chu ICDE'01 Algorithm 1 (docs/PLANNER.md)",
      std::to_string(num_sequences) + " walks of length " +
          std::to_string(length) + ", band=" + std::to_string(band) +
          ", " + std::to_string(num_queries) + " queries per eps");

  // One engine per plan, all over the same dataset, each running the row's
  // stage subset; the "paper" row doubles as the plain TW-Sim-Search
  // baseline (its dtw_evals match by construction, which the
  // cross-validation below re-checks).
  std::vector<std::unique_ptr<Engine>> engines;
  for (const PlanCase& plan_case : PlanCases()) {
    EngineOptions options;
    options.dtw.band = static_cast<int>(band);
    options.cascade_plan = plan_case.plan;
    engines.push_back(
        std::make_unique<Engine>(dataset, std::move(options)));
  }
  const auto queries = GenerateQueryWorkload(
      dataset, QueryWorkloadOptions{
                   .num_queries = static_cast<size_t>(num_queries)});

  bench::MetricsJsonWriter json("abl10_lb_cascade", metrics_json);
  TablePrinter table(stdout,
                     {"eps", "plan", "candidates", "dtw_evals", "dtw_cells",
                      "pr_yi", "pr_keogh", "pr_impr",
                      "wall_ms"});
  table.PrintHeader();
  for (const double eps : bench::ParseDoubleList(eps_list)) {
    // Cross-validate: every plan must return the plain method's answers.
    size_t mismatches = 0;
    for (const Sequence& q : queries) {
      const SearchResult expected =
          engines[0]->SearchWith(MethodKind::kTwSimSearch, q, eps);
      for (std::unique_ptr<Engine>& engine : engines) {
        const SearchResult got =
            engine->SearchWith(MethodKind::kTwSimSearchCascade, q, eps);
        if (got.matches != expected.matches) {
          ++mismatches;
        }
      }
    }

    const bench::WorkloadSummary baseline = bench::RunWorkload(
        *engines[0], MethodKind::kTwSimSearch, queries, eps);
    for (size_t i = 0; i < engines.size(); ++i) {
      const PlanCase plan_case = PlanCases()[i];
      const bench::WorkloadSummary summary = bench::RunWorkload(
          *engines[i], MethodKind::kTwSimSearchCascade, queries, eps);
      table.PrintRow(
          {bench::FormatDouble(eps, 2), plan_case.label,
           bench::FormatDouble(summary.avg_candidates, 1),
           bench::FormatDouble(summary.avg_dtw_evals, 1),
           bench::FormatDouble(summary.avg_dtw_cells, 0),
           std::to_string(PrunedAt(summary, kStageLbYiCascade)),
           std::to_string(PrunedAt(summary, kStageLbKeoghCascade)),
           std::to_string(PrunedAt(summary, kStageLbImprovedCascade)),
           bench::FormatDouble(summary.avg_wall_ms, 3)});
      json.AddRow("cascade:" + plan_case.label, "eps", eps, summary);
    }
    json.AddRow("tw", "eps", eps, baseline);
    if (mismatches != 0) {
      std::printf("!! %zu plan rows disagreed with TW-Sim-Search at "
                  "eps=%.3f — cascade soundness bug\n",
                  mismatches, eps);
      return 1;
    }
    std::printf("  (baseline TW-Sim-Search: %s dtw_evals/query; all plans "
                "answer-identical)\n",
                bench::FormatDouble(baseline.avg_dtw_evals, 1).c_str());
  }
  json.Flush();
  std::printf(
      "\nexpected shape: dtw_evals falls monotonically as stages are "
      "added; with a narrow band lb_keogh/lb_improved prune far more "
      "than the global-envelope lb_yi, at a few O(n) bound evaluations "
      "per candidate.\n");
  return 0;
}

}  // namespace
}  // namespace warpindex

int main(int argc, char** argv) { return warpindex::Run(argc, argv); }
