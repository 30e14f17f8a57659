// google-benchmark microbenchmarks of the engine primitives themselves
// (no cost model): AddVertex/AddEdge, vertex and edge id lookup,
// neighborhood expansion — the honest in-process data-structure costs
// under every figure.
//
// Accepts the suite-wide --json=<path> flag (emitting BENCH_engines.json,
// archived by CI like the other micro benches) by translating it into
// google-benchmark's JSON reporter; all other --benchmark_* flags pass
// through untouched.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/util/rng.h"

namespace gdbmicro {
namespace {

std::unique_ptr<GraphEngine> FreshEngine(const std::string& name) {
  RegisterBuiltinEngines();
  EngineOptions options;  // cost model off: measure the data structures
  auto engine = OpenEngine(name, options);
  return engine.ok() ? std::move(engine).value() : nullptr;
}

const GraphData& SmallGraph() {
  static GraphData* data = [] {
    datasets::GenOptions options;
    options.scale = 0.01;
    return new GraphData(datasets::GenerateMiCo(options));
  }();
  return *data;
}

void BM_EngineAddVertex(benchmark::State& state, const std::string& name) {
  auto engine = FreshEngine(name);
  PropertyMap props;
  props.emplace_back("name", PropertyValue("benchmark"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->AddVertex("node", props));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EngineAddEdge(benchmark::State& state, const std::string& name) {
  auto engine = FreshEngine(name);
  std::vector<VertexId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(engine->AddVertex("node", {}).value());
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->AddEdge(ids[rng.Uniform(ids.size())],
                                             ids[rng.Uniform(ids.size())],
                                             "link", {}));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EngineGetVertex(benchmark::State& state, const std::string& name) {
  auto engine = FreshEngine(name);
  auto mapping = engine->BulkLoad(SmallGraph()).value();
  auto session = engine->CreateSession();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->GetVertex(
        *session,
        mapping.vertex_ids[rng.Uniform(mapping.vertex_ids.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}

// g.E(id) by id: edges drawn uniformly, so hub edges weigh by their share
// of the graph (a per-row scan would show up here on hub-heavy mico).
void BM_EngineGetEdge(benchmark::State& state, const std::string& name) {
  auto engine = FreshEngine(name);
  auto mapping = engine->BulkLoad(SmallGraph()).value();
  auto session = engine->CreateSession();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->GetEdge(
        *session, mapping.edge_ids[rng.Uniform(mapping.edge_ids.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EngineNeighbors(benchmark::State& state, const std::string& name) {
  auto engine = FreshEngine(name);
  auto mapping = engine->BulkLoad(SmallGraph()).value();
  auto session = engine->CreateSession();
  CancelToken never;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->NeighborsOf(
        *session, mapping.vertex_ids[rng.Uniform(mapping.vertex_ids.size())],
        Direction::kBoth, nullptr, never));
  }
  state.SetItemsProcessed(state.iterations());
}

#define ENGINE_BENCH(engine_name)                                         \
  BENCHMARK_CAPTURE(BM_EngineAddVertex, engine_name, #engine_name);      \
  BENCHMARK_CAPTURE(BM_EngineAddEdge, engine_name, #engine_name);        \
  BENCHMARK_CAPTURE(BM_EngineGetVertex, engine_name, #engine_name);      \
  BENCHMARK_CAPTURE(BM_EngineGetEdge, engine_name, #engine_name);        \
  BENCHMARK_CAPTURE(BM_EngineNeighbors, engine_name, #engine_name)

ENGINE_BENCH(neo19);
ENGINE_BENCH(neo30);
ENGINE_BENCH(orient);
ENGINE_BENCH(sparksee);
ENGINE_BENCH(arango);
ENGINE_BENCH(blaze);
ENGINE_BENCH(sqlg);
ENGINE_BENCH(titan05);
ENGINE_BENCH(titan10);

}  // namespace
}  // namespace gdbmicro

// BENCHMARK_MAIN(), plus the --json translation described in the header
// comment: --json=PATH becomes --benchmark_out=PATH in JSON format.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      args.emplace_back(std::string("--benchmark_out=") + (arg + 7));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.emplace_back(arg);
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
