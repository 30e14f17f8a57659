// Micro-benchmark for prepared execution: every query shape is run two
// ways against every engine — rebuilt-per-iteration (construct the
// Traversal, lower it, run it: what the harness used to do for each of
// the paper's thousands of repetitions) and prepared (lowered once via
// Traversal::Prepare, per-iteration arguments rebound through PlanParams,
// results collected into reused session scratch). Reports queries/sec
// each way, the prepared speedup, and heap allocations per iteration —
// on cheap point queries the rebuild path's lowering dominates, which is
// exactly the harness overhead the prepared layer removes from the
// architecture signal. Cost models are off by default.
//
// Usage: bench_micro_prepared [--scale=<f>] [--engines=a,b,c]
//        [--dataset=<name>] [--iterations=<n>] [--json=<path>]
//
// --json writes BENCH_prepared.json (archived by CI).

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/query/traversal.h"
#include "src/util/json.h"
#include "src/util/timer.h"

// --- global allocation counter ---------------------------------------------
// Counts every operator-new hit in the process. Single-threaded binary, so
// a plain counter is enough (same technique as bench_micro_adjacency).

static uint64_t g_allocs = 0;

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// allocate with malloc too, or the free() below mismatches them.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
// The replacement operator new above allocates with malloc, so freeing
// here is the matched deallocation; GCC's -Wmismatched-new-delete cannot
// see through the replacement when inlining.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace gdbmicro {
namespace {

using query::Bound;
using query::PlanParams;
using query::PreparedPlan;
using query::Traversal;

struct Measurement {
  double seconds = 0;
  uint64_t allocs = 0;
  uint64_t iterations = 0;
  uint64_t checksum = 0;  // result-count accumulator (equivalence check)

  double QueriesPerSec() const {
    return seconds > 0 ? iterations / seconds : 0.0;
  }
  double AllocsPerIteration() const {
    return iterations > 0 ? static_cast<double>(allocs) / iterations : 0.0;
  }
};

template <typename Fn>
Measurement Measure(uint64_t iterations, Fn&& fn) {
  Measurement m;
  m.iterations = iterations;
  uint64_t before = g_allocs;
  Timer timer;
  m.checksum = fn();
  m.seconds = timer.ElapsedSeconds();
  m.allocs = g_allocs - before;
  return m;
}

/// One benchmarked shape: the bound form for Prepare, a per-iteration
/// rebuild factory, and how the iteration's parameters are picked.
struct Shape {
  const char* name;
  bool point;  // a cheap point query (the headline prepared win)
  Traversal bound;
  std::function<Traversal(const PlanParams&)> rebuild;
  std::function<void(uint64_t, PlanParams*)> pick;  // iteration -> params
};

int Run(int argc, char** argv) {
  bench::MicroBenchFlags flags;
  flags.iterations = 2000;
  if (!bench::ParseMicroBenchFlags(argc, argv, &flags)) return 2;
  const uint64_t iterations = static_cast<uint64_t>(flags.iterations);

  RegisterBuiltinEngines();
  std::vector<std::string> engines = flags.engines;
  if (engines.empty()) engines = EngineRegistry::Instance().Names();

  datasets::GenOptions gen;
  gen.scale = flags.scale;
  auto data = datasets::GenerateByName(flags.dataset, gen);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", flags.dataset.c_str(),
                 data.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "prepared micro-bench: dataset=%s scale=%.3f (%zu vertices, %zu "
      "edges), %llu iterations, cost model off\n\n",
      flags.dataset.c_str(), flags.scale, data->vertices.size(),
      data->edges.size(), (unsigned long long)iterations);
  std::printf("%-9s %-18s %12s %12s %8s %10s %10s\n", "engine", "shape",
              "rebuilt q/s", "prepared q/s", "speedup", "reb a/it",
              "prep a/it");

  CancelToken never;
  Json::Array json_rows;
  bool mismatch = false;
  for (const std::string& name : engines) {
    EngineOptions options;  // cost model off: measure the harness layers
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
    const std::vector<VertexId>& vids = mapping->vertex_ids;
    const std::vector<EdgeId>& eids = mapping->edge_ids;
    if (vids.empty() || eids.empty()) continue;
    const std::string probe_label = data->edges.front().label;

    std::vector<Shape> shapes;
    shapes.push_back(
        {"V(id).count", true, Traversal::V(Bound{}).Count(),
         [](const PlanParams& p) { return Traversal::V(p.id).Count(); },
         [&](uint64_t i, PlanParams* p) { p->id = vids[i % vids.size()]; }});
    shapes.push_back(
        {"E(id).count", true, Traversal::E(Bound{}).Count(),
         [](const PlanParams& p) { return Traversal::E(p.id).Count(); },
         [&](uint64_t i, PlanParams* p) { p->id = eids[i % eids.size()]; }});
    shapes.push_back(
        {"V(id).out.count", true, Traversal::V(Bound{}).Out().Count(),
         [](const PlanParams& p) { return Traversal::V(p.id).Out().Count(); },
         [&](uint64_t i, PlanParams* p) { p->id = vids[i % vids.size()]; }});
    shapes.push_back(
        {"V(id).bothE.label", false,
         Traversal::V(Bound{}).BothE(std::string(probe_label)).Label().Dedup(),
         [&](const PlanParams& p) {
           return Traversal::V(p.id).BothE(std::string(probe_label))
               .Label()
               .Dedup();
         },
         [&](uint64_t i, PlanParams* p) { p->id = vids[i % vids.size()]; }});

    for (Shape& shape : shapes) {
      auto prepared = shape.bound.Prepare(**engine);
      if (!prepared.ok()) {
        std::fprintf(stderr, "%s %s: %s\n", name.c_str(), shape.name,
                     prepared.status().ToString().c_str());
        continue;
      }
      PlanParams params;
      // Warmup: session scratch buffers and dictionary reach capacity.
      for (uint64_t i = 0; i < 64; ++i) {
        shape.pick(i, &params);
        prepared->RunCount(*session, never, params).ok();
      }
      Measurement prep = Measure(iterations, [&] {
        uint64_t checksum = 0;
        for (uint64_t i = 0; i < iterations; ++i) {
          shape.pick(i, &params);
          auto n = prepared->RunCount(*session, never, params);
          if (n.ok()) checksum += *n;
        }
        return checksum;
      });
      Measurement rebuilt = Measure(iterations, [&] {
        uint64_t checksum = 0;
        for (uint64_t i = 0; i < iterations; ++i) {
          shape.pick(i, &params);
          auto n = shape.rebuild(params).ExecuteCount(**engine, *session,
                                                      never);
          if (n.ok()) checksum += *n;
        }
        return checksum;
      });
      if (prep.checksum != rebuilt.checksum) {
        mismatch = true;
        std::fprintf(stderr,
                     "%s %s: RESULT MISMATCH prepared=%llu rebuilt=%llu\n",
                     name.c_str(), shape.name,
                     (unsigned long long)prep.checksum,
                     (unsigned long long)rebuilt.checksum);
      }
      double speedup = prep.seconds > 0 && rebuilt.seconds > 0
                           ? rebuilt.seconds / prep.seconds
                           : 0.0;
      std::printf("%-9s %-18s %12.0f %12.0f %7.2fx %10.3f %10.3f\n",
                  name.c_str(), shape.name, rebuilt.QueriesPerSec(),
                  prep.QueriesPerSec(), speedup,
                  rebuilt.AllocsPerIteration(), prep.AllocsPerIteration());
      std::fflush(stdout);
      json_rows.push_back(Json(Json::Object{
          {"engine", Json(name)},
          {"shape", Json(shape.name)},
          {"point_query", Json(shape.point)},
          {"rebuilt_qps", Json(rebuilt.QueriesPerSec())},
          {"prepared_qps", Json(prep.QueriesPerSec())},
          {"speedup", Json(speedup)},
          {"rebuilt_allocs_per_iteration", Json(rebuilt.AllocsPerIteration())},
          {"prepared_allocs_per_iteration", Json(prep.AllocsPerIteration())},
          {"result_checksum", Json(prep.checksum)},
      }));
    }
  }
  std::printf(
      "\n(speedup = rebuilt q/s over prepared q/s on the same engine and\n"
      " session; a/it = heap allocations per iteration. The prepared path\n"
      " must show ~0 allocations on the point shapes — its per-run state\n"
      " lives in the session's PlanScratch, and per-iteration arguments\n"
      " are rebound through PlanParams instead of re-lowering.)\n");

  if (!flags.json_path.empty()) {
    Json doc(Json::Object{
        {"bench", Json("micro_prepared")},
        {"dataset", Json(flags.dataset)},
        {"scale", Json(flags.scale)},
        {"iterations", Json(static_cast<int64_t>(iterations))},
        {"results", Json(std::move(json_rows))},
    });
    if (!bench::WriteJsonArtifact(flags.json_path, doc)) return 1;
  }
  return mismatch ? 1 : 0;
}

}  // namespace
}  // namespace gdbmicro

int main(int argc, char** argv) { return gdbmicro::Run(argc, argv); }
