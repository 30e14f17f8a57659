// Micro-benchmark for the operator pipeline's execution policies: every
// query shape is lowered twice — step-wise (materializing barrier after
// every operator, the TinkerPop model) and conflated (planner rewrites +
// fused streaming pass) — and run against every engine with the cost
// models off, so the numbers are the execution model's own. Reports
// wall-clock per run, result rows/sec, the speedup of the conflated
// policy, and the peak intermediate-result bytes each policy
// materialized (PlanStats). The V.bothE.label.dedup.count shape is the
// fused xE().label() walk against step-wise ExpandE -> LabelMap. Exits
// non-zero when the two policies disagree on any shape's result.
//
// Usage: bench_micro_plan [--scale=<f>] [--engines=a,b,c] [--rounds=<n>]
//        [--dataset=<name>] [--json=<path>]
//
// --json writes the measurements as a machine-readable BENCH_*.json
// artifact (archived by CI).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/query/traversal.h"
#include "src/util/json.h"
#include "src/util/timer.h"

namespace gdbmicro {
namespace {

using query::Plan;
using query::PlanStats;
using query::Traversal;

struct PolicyMeasurement {
  double seconds_per_run = 0;
  uint64_t rows = 0;  // result cardinality (count value for counted shapes)
  uint64_t peak_frontier_bytes = 0;
  uint64_t source_rows = 0;  // rows the source emitted (early-stop proof)

  double RowsPerSec() const {
    return seconds_per_run > 0 ? rows / seconds_per_run : 0.0;
  }
};

/// Runs `t` lowered under `policy` `rounds` times; stats from the last
/// run, time averaged.
Result<PolicyMeasurement> MeasurePolicy(const Traversal& t,
                                        QueryExecution policy,
                                        const GraphEngine& engine,
                                        QuerySession& session, int rounds,
                                        const CancelToken& cancel) {
  GDB_ASSIGN_OR_RETURN(Plan plan, t.Lower(policy));
  PolicyMeasurement m;
  PlanStats stats;
  Timer timer;
  for (int r = 0; r < rounds; ++r) {
    GDB_ASSIGN_OR_RETURN(query::TraversalOutput out,
                         plan.Run(engine, session, cancel, &stats));
    m.rows = out.counted ? out.count : out.rows.size();
  }
  m.seconds_per_run = timer.ElapsedSeconds() / rounds;
  m.peak_frontier_bytes = stats.peak_frontier_bytes;
  m.source_rows = stats.rows_out.empty() ? 0 : stats.rows_out[0];
  return m;
}

int Run(int argc, char** argv) {
  bench::MicroBenchFlags flags;
  if (!bench::ParseMicroBenchFlags(argc, argv, &flags)) return 2;
  const double scale = flags.scale;
  const int rounds = flags.rounds;
  const std::string& dataset = flags.dataset;
  const std::string& json_path = flags.json_path;
  std::vector<std::string> engines = flags.engines;

  RegisterBuiltinEngines();
  if (engines.empty()) engines = EngineRegistry::Instance().Names();

  datasets::GenOptions gen;
  gen.scale = scale;
  auto data = datasets::GenerateByName(dataset, gen);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", dataset.c_str(),
                 data.status().ToString().c_str());
    return 1;
  }

  // Dataset-derived probes: an existing vertex property for the Has
  // pushdown and an existing edge label for the HasLabel pushdown.
  size_t probe_idx = 0;
  while (probe_idx < data->vertices.size() &&
         data->vertices[probe_idx].properties.empty()) {
    ++probe_idx;
  }
  if (probe_idx == data->vertices.size() || data->edges.empty()) {
    std::fprintf(stderr, "dataset %s lacks probe properties/edges\n",
                 dataset.c_str());
    return 1;
  }
  const auto& [probe_key, probe_value] =
      data->vertices[probe_idx].properties.front();
  const std::string probe_label = data->edges.front().label;

  struct Shape {
    const char* name;
    Traversal t;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"V.has", Traversal::V().Has(probe_key, probe_value)});
  shapes.push_back(
      {"V.out.dedup.count", Traversal::V().Out().Dedup().Count()});
  shapes.push_back(
      {"E.hasLabel.count", Traversal::E().HasLabel(probe_label).Count()});
  shapes.push_back({"V.limit.100", Traversal::V().Limit(100)});
  shapes.push_back({"V.count", Traversal::V().Count()});
  // Q.25-Q.27 over every vertex: conflated runs bothE().label() as one
  // ForEachEdgeLabel pass, step-wise re-fetches every edge in LabelMap.
  shapes.push_back({"V.bothE.label.dedup.count",
                    Traversal::V().BothE().Label().Dedup().Count()});

  std::printf(
      "plan micro-bench: dataset=%s scale=%.3f (%zu vertices, %zu edges), "
      "%d rounds, cost model off\n",
      dataset.c_str(), scale, data->vertices.size(), data->edges.size(),
      rounds);
  std::printf("probe: has(%s == %s), hasLabel(%s)\n\n", probe_key.c_str(),
              probe_value.ToString().c_str(), probe_label.c_str());
  std::printf("%-9s %-25s %10s %10s %8s %12s %12s %10s\n", "engine", "shape",
              "step ms", "confl ms", "speedup", "step rows/s", "confl rows/s",
              "step KiB");

  CancelToken never;
  Json::Array json_rows;
  bool policy_mismatch = false;
  for (const std::string& name : engines) {
    EngineOptions options;  // cost model off: measure the execution model
    auto engine = OpenEngine(name, options, /*honor_cost_model_env=*/false);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   engine.status().ToString().c_str());
      continue;
    }
    auto mapping = (*engine)->BulkLoad(*data);
    if (!mapping.ok()) {
      std::fprintf(stderr, "%s load: %s\n", name.c_str(),
                   mapping.status().ToString().c_str());
      continue;
    }
    auto session = (*engine)->CreateSession();
    for (const Shape& shape : shapes) {
      auto step = MeasurePolicy(shape.t, QueryExecution::kStepWise, **engine,
                                *session, rounds, never);
      auto conf = MeasurePolicy(shape.t, QueryExecution::kConflated, **engine,
                                *session, rounds, never);
      if (!step.ok() || !conf.ok()) {
        std::fprintf(stderr, "%s %s: %s\n", name.c_str(), shape.name,
                     (step.ok() ? conf : step).status().ToString().c_str());
        continue;
      }
      if (step->rows != conf->rows) {
        // The policies must agree on results; a mismatch at bench scale
        // is a planner bug and fails the run (CI's smoke step).
        policy_mismatch = true;
        std::fprintf(stderr, "%s %s: POLICY MISMATCH step=%llu confl=%llu\n",
                     name.c_str(), shape.name,
                     (unsigned long long)step->rows,
                     (unsigned long long)conf->rows);
      }
      double speedup = conf->seconds_per_run > 0
                           ? step->seconds_per_run / conf->seconds_per_run
                           : 0.0;
      std::printf("%-9s %-25s %10.3f %10.3f %8.2f %12.0f %12.0f %10.1f\n",
                  name.c_str(), shape.name, step->seconds_per_run * 1e3,
                  conf->seconds_per_run * 1e3, speedup, step->RowsPerSec(),
                  conf->RowsPerSec(), step->peak_frontier_bytes / 1024.0);
      json_rows.push_back(Json(Json::Object{
          {"engine", Json(name)},
          {"shape", Json(shape.name)},
          {"rows", Json(step->rows)},
          {"stepwise_ms", Json(step->seconds_per_run * 1e3)},
          {"conflated_ms", Json(conf->seconds_per_run * 1e3)},
          {"speedup", Json(speedup)},
          {"stepwise_peak_frontier_bytes", Json(step->peak_frontier_bytes)},
          {"conflated_peak_frontier_bytes", Json(conf->peak_frontier_bytes)},
          {"stepwise_source_rows", Json(step->source_rows)},
          {"conflated_source_rows", Json(conf->source_rows)},
      }));
    }
  }
  std::printf(
      "\n(speedup = step-wise ms / conflated ms; step KiB = the peak\n"
      " materialized frontier the step-wise barriers paid. The conflated\n"
      " policy materializes no frontier at all — counted shapes stream\n"
      " into the sink, Limit stops the source scan itself.)\n");

  if (!json_path.empty()) {
    Json doc(Json::Object{
        {"bench", Json("micro_plan")},
        {"dataset", Json(dataset)},
        {"scale", Json(scale)},
        {"rounds", Json(rounds)},
        {"results", Json(std::move(json_rows))},
    });
    if (!bench::WriteJsonArtifact(json_path, doc)) return 1;
  }
  return policy_mismatch ? 1 : 0;
}

}  // namespace
}  // namespace gdbmicro

int main(int argc, char** argv) { return gdbmicro::Run(argc, argv); }
