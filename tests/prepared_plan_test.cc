// Prepared-plan conformance: a plan lowered once via Traversal::Prepare
// must return results identical to the rebuild-every-time baseline
// (Traversal::Execute per iteration) — (a) run repeatedly from one
// session, (b) run from concurrent sessions sharing the one prepared
// plan, (c) with parameters rebound between runs — on all nine engines.
// Both cost-model modes are covered by the two ctest legs (the second CI
// leg sets GDBMICRO_COST_MODEL=1, which OpenEngine honors here).
//
// Plus the allocation contract: after warmup, repeated prepared runs of
// a point query allocate ~nothing — the per-run state lives in the
// session's PlanScratch and is reused, while the rebuild path pays the
// traversal build + lowering allocations every iteration. Beneath it, direct
// adjacency and scan visitor calls allocate nothing on the native-layout
// engines, and a warm dedup() adds no allocation per admitted row.
//
// And the shared PreparedQueryCache: one lowering per key under racing
// first lookups, stable plan addresses, and a typed error off its range.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/queries.h"
#include "src/graph/registry.h"
#include "src/query/traversal.h"

// --- global allocation counter ---------------------------------------------
// Counts every operator-new hit in the process (same technique as
// bench_micro_adjacency). Atomic/relaxed because the concurrent-session
// test allocates from several threads; the assertions only read it
// around single-threaded sections.

#include <atomic>

static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// allocate with malloc too, or the free() below mismatches them.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
// The replacement operator new above allocates with malloc, so freeing
// here is the matched deallocation; GCC's -Wmismatched-new-delete cannot
// see through the replacement when inlining gtest internals.
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

// Same small social graph as plan_test, so goldens are comparable:
//
//   p0 -knows-> p1 -knows-> p2 -knows-> p3     (chain)
//   p0 -knows-> p2                              (shortcut)
//   p4                                          (isolated person)
//   post0 -hasCreator-> p1, post0 -hasTag-> t0
class PreparedPlanTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    auto engine = OpenEngine(GetParam(), EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    session_ = engine_->CreateSession();

    auto add_person = [&](const char* name) {
      PropertyMap props;
      props.emplace_back("name", PropertyValue(name));
      return engine_->AddVertex("person", props).value();
    };
    p_[0] = add_person("ada");
    p_[1] = add_person("bob");
    p_[2] = add_person("cyd");
    p_[3] = add_person("dee");
    p_[4] = add_person("eve");
    knows0_ = engine_->AddEdge(p_[0], p_[1], "knows", {}).value();
    ASSERT_TRUE(engine_->AddEdge(p_[1], p_[2], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[2], p_[3], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[0], p_[2], "knows", {}).ok());
    post_ = engine_->AddVertex("post", {}).value();
    tag_ = engine_->AddVertex("tag", {}).value();
    ASSERT_TRUE(engine_->AddEdge(post_, p_[1], "hasCreator", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(post_, tag_, "hasTag", {}).ok());
  }

  /// One parameterized shape: a prepared (bound) form, the equivalent
  /// rebuild-every-time form for a concrete parameter pick, and the
  /// per-iteration parameter stream.
  struct Shape {
    const char* name;
    Traversal prepared;                           // with Bound{} slots
    std::function<Traversal(const PlanParams&)> rebuild;
    std::vector<PlanParams> iterations;
  };

  std::vector<Shape> Shapes() {
    auto id_params = [&](std::initializer_list<uint64_t> ids) {
      std::vector<PlanParams> out;
      for (uint64_t id : ids) {
        PlanParams p;
        p.id = id;
        out.push_back(std::move(p));
      }
      return out;
    };
    std::vector<Shape> shapes;
    shapes.push_back(
        {"V(?).count", Traversal::V(Bound{}).Count(),
         [](const PlanParams& p) { return Traversal::V(p.id).Count(); },
         id_params({p_[0], p_[2], p_[4], post_, tag_, 999999})});
    shapes.push_back(
        {"E(?).count", Traversal::E(Bound{}).Count(),
         [](const PlanParams& p) { return Traversal::E(p.id).Count(); },
         id_params({knows0_, 999999})});
    shapes.push_back(
        {"V(?).out.count", Traversal::V(Bound{}).Out().Count(),
         [](const PlanParams& p) { return Traversal::V(p.id).Out().Count(); },
         id_params({p_[0], p_[1], p_[2], p_[4], post_})});
    shapes.push_back(
        {"V(?).bothE.label.dedup",
         Traversal::V(Bound{}).BothE().Label().Dedup(),
         [](const PlanParams& p) {
           return Traversal::V(p.id).BothE().Label().Dedup();
         },
         id_params({p_[1], p_[2], post_, p_[4]})});
    // The fused xE().label() walk (conflated engines) under rebinding.
    shapes.push_back(
        {"V(?).bothE.label.dedup.count",
         Traversal::V(Bound{}).BothE().Label().Dedup().Count(),
         [](const PlanParams& p) {
           return Traversal::V(p.id).BothE().Label().Dedup().Count();
         },
         id_params({p_[1], p_[2], post_, p_[4], 999999})});
    shapes.push_back(
        {"V(?).bothE.label.limit(2)",
         Traversal::V(Bound{}).BothE().Label().Limit(2),
         [](const PlanParams& p) {
           return Traversal::V(p.id).BothE().Label().Limit(2);
         },
         id_params({p_[1], p_[0], post_, p_[4]})});
    {
      Shape in_e{"V(?).inE(?).label",
                 Traversal::V(Bound{}).InE(Bound{}).Label(),
                 [](const PlanParams& p) {
                   return Traversal::V(p.id).InE(p.label).Label();
                 },
                 {}};
      struct Pick {
        VertexId id;
        const char* label;
      };
      for (const Pick& pick : {Pick{p_[2], "knows"}, Pick{p_[1], "hasCreator"},
                               Pick{p_[1], "nolabel"}, Pick{tag_, "hasTag"}}) {
        PlanParams p;
        p.id = pick.id;
        p.label = pick.label;
        in_e.iterations.push_back(std::move(p));
      }
      shapes.push_back(std::move(in_e));
    }
    {
      Shape has{"V().has(name,?).count",
                Traversal::V().Has("name", Bound{}).Count(),
                [](const PlanParams& p) {
                  return Traversal::V().Has("name", p.value).Count();
                },
                {}};
      for (const char* name : {"ada", "cyd", "nobody", "cyd"}) {
        PlanParams p;
        p.value = PropertyValue(name);
        has.iterations.push_back(std::move(p));
      }
      shapes.push_back(std::move(has));
    }
    {
      Shape both{"V(?).both(?).count",
                 Traversal::V(Bound{}).Both(Bound{}).Count(),
                 [](const PlanParams& p) {
                   return Traversal::V(p.id).Both(p.label).Count();
                 },
                 {}};
      struct Pick {
        uint64_t id;
        const char* label;
      };
      for (const Pick& pick : {Pick{0, "knows"}, Pick{0, "hasTag"},
                               Pick{0, "nolabel"}}) {
        PlanParams p;
        p.id = p_[1];
        p.label = pick.label;
        both.iterations.push_back(std::move(p));
      }
      shapes.push_back(std::move(both));
    }
    return shapes;
  }

  /// The rebuild-every-time golden for one (shape, params) pick.
  uint64_t Golden(const Shape& shape, const PlanParams& params,
                  QuerySession& session) {
    auto r = shape.rebuild(params).ExecuteCount(*engine_, session, never_);
    EXPECT_TRUE(r.ok()) << shape.name << ": " << r.status();
    return r.ok() ? *r : ~0ULL;
  }

  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  VertexId p_[5];
  VertexId post_ = 0;
  VertexId tag_ = 0;
  EdgeId knows0_ = 0;
  CancelToken never_;
};

TEST_P(PreparedPlanTest, RepeatedRunsAndReboundParamsMatchRebuildGolden) {
  for (auto& shape : Shapes()) {
    auto prepared = shape.prepared.Prepare(*engine_);
    ASSERT_TRUE(prepared.ok()) << shape.name << ": " << prepared.status();
    // (c) rebound parameters across the whole stream, and (a) every pick
    // run twice in the same session: the second run must see fully reset
    // per-run state (dedup sets, counters) through the scratch epochs.
    for (const PlanParams& params : shape.iterations) {
      uint64_t golden = Golden(shape, params, *session_);
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto n = prepared->RunCount(*session_, never_, params);
        ASSERT_TRUE(n.ok()) << shape.name << ": " << n.status();
        EXPECT_EQ(*n, golden) << shape.name << " repeat " << repeat;
      }
    }
    // Full result (not just cardinality) equivalence for the value shape.
    for (const PlanParams& params : shape.iterations) {
      auto out = prepared->Run(*session_, never_, params);
      ASSERT_TRUE(out.ok()) << shape.name;
      EXPECT_EQ(out->counted ? out->count : out->rows.size(),
                Golden(shape, params, *session_))
          << shape.name;
      if (out->kind != query::RowKind::kValue) continue;
      // Value rows: the same labels in the same order as the rebuilt
      // plan (the lowering is identical, only the binding differs).
      std::vector<std::string> prepared_values(out->values.begin(),
                                               out->values.end());
      auto rebuilt = shape.rebuild(params).Execute(*engine_, *session_, never_);
      ASSERT_TRUE(rebuilt.ok()) << shape.name << ": " << rebuilt.status();
      EXPECT_EQ(prepared_values, std::vector<std::string>(
                                     rebuilt->values.begin(),
                                     rebuilt->values.end()))
          << shape.name;
    }
  }
}

TEST_P(PreparedPlanTest, OnePreparedPlanServesConcurrentSessions) {
  // (b) one prepared plan, 4 client sessions on 4 threads, every thread
  // running the full parameter stream of every shape. Each thread only
  // records; assertions happen after the join.
  auto shapes = Shapes();
  std::vector<std::unique_ptr<PreparedPlan>> prepared;
  std::vector<std::vector<uint64_t>> goldens(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    auto plan = shapes[s].prepared.Prepare(*engine_);
    ASSERT_TRUE(plan.ok()) << shapes[s].name;
    prepared.push_back(
        std::make_unique<PreparedPlan>(std::move(plan).value()));
    for (const PlanParams& params : shapes[s].iterations) {
      goldens[s].push_back(Golden(shapes[s], params, *session_));
    }
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<uint64_t>> results(kThreads);
  std::vector<Status> failures(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::unique_ptr<QuerySession> session = engine_->CreateSession();
        for (int round = 0; round < kRounds; ++round) {
          for (size_t s = 0; s < shapes.size(); ++s) {
            for (const PlanParams& params : shapes[s].iterations) {
              auto n = prepared[s]->RunCount(*session, never_, params);
              if (!n.ok()) {
                failures[t] = n.status();
                return;
              }
              if (round == 0) results[t].push_back(*n);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  std::vector<uint64_t> expected;
  for (const auto& per_shape : goldens) {
    expected.insert(expected.end(), per_shape.begin(), per_shape.end());
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": " << failures[t];
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PreparedPlanTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- Allocation contract ----------------------------------------------------

/// 200 propertyless "n" vertices, each with one out edge labelled "l"
/// (i -> 7i+1 mod 200). Returns the vertex ids; empty on a failed write.
std::vector<VertexId> AddPropertylessGraph(GraphEngine& engine) {
  std::vector<VertexId> v;
  for (int i = 0; i < 200; ++i) {
    auto id = engine.AddVertex("n", {});
    if (!id.ok()) return {};
    v.push_back(*id);
  }
  for (int i = 0; i < 200; ++i) {
    if (!engine.AddEdge(v[static_cast<size_t>(i)],
                        v[static_cast<size_t>((i * 7 + 1) % 200)], "l", {})
             .ok()) {
      return {};
    }
  }
  return v;
}

TEST(PreparedPlanAllocationTest, SteadyStateRunsAllocateAlmostNothing) {
  // Propertyless graph on the record-chain engine whose visitors are
  // allocation-free, so every remaining allocation is the query layer's.
  auto engine = OpenEngine("neo19", EngineOptions{}).value();
  std::vector<VertexId> v = AddPropertylessGraph(*engine);
  ASSERT_EQ(v.size(), 200u);
  auto session = engine->CreateSession();
  CancelToken never;

  auto prepared = Traversal::V(Bound{}).Out().Count().Prepare(*engine);
  ASSERT_TRUE(prepared.ok());

  constexpr int kIterations = 400;
  PlanParams params;
  auto run_prepared = [&](int iterations) {
    uint64_t hops = 0;
    for (int i = 0; i < iterations; ++i) {
      params.id = v[static_cast<size_t>(i) % v.size()];
      auto n = prepared->RunCount(*session, never, params);
      if (n.ok()) hops += *n;
    }
    return hops;
  };

  run_prepared(50);  // warmup: scratch slots and buffers reach capacity
  uint64_t before = g_allocs;
  uint64_t hops = run_prepared(kIterations);
  uint64_t prepared_allocs = g_allocs - before;

  // Rebuild-every-time baseline over the same picks.
  before = g_allocs;
  uint64_t rebuilt_hops = 0;
  for (int i = 0; i < kIterations; ++i) {
    auto n = Traversal::V(v[static_cast<size_t>(i) % v.size()])
                 .Out()
                 .Count()
                 .ExecuteCount(*engine, *session, never);
    if (n.ok()) rebuilt_hops += *n;
  }
  uint64_t rebuilt_allocs = g_allocs - before;

  EXPECT_EQ(hops, rebuilt_hops);
  EXPECT_GT(hops, 0u);
  // The prepared path's steady state is allocation-free: no lowering, no
  // operator chain, no per-row strings, reused scratch. Allow a whisker
  // of slack for engine-internal noise rather than asserting a hard 0.
  EXPECT_LE(prepared_allocs, static_cast<uint64_t>(kIterations) / 10)
      << "prepared allocs/iter = "
      << static_cast<double>(prepared_allocs) / kIterations;
  // And it must beat the rebuild path by a wide margin (which pays the
  // step vector, the operator chain, and the lowering every iteration).
  EXPECT_LT(prepared_allocs * 10, rebuilt_allocs);
}

// --- Visitor allocation contract ---------------------------------------------

// The engine read surface takes its callbacks as FunctionRef, so a
// visitor call whose layout keeps adjacency in place allocates nothing:
// neither for the caller's closure (whatever its size) nor for the
// closures the engine wraps it in. Steady state, propertyless graph, on
// every engine whose storage layout needs no per-call decode. Excluded:
//  * arango parses a JSON document per call (its architecture);
//  * orient decodes the vertex record, two allocations per call;
//  * titan10's row cache inserts on a miss (~0.76 per kBoth call).
class VisitorAllocationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VisitorAllocationTest, DirectVisitorCallsAllocateNothing) {
  auto engine = OpenEngine(GetParam(), EngineOptions{}).value();
  std::vector<VertexId> v = AddPropertylessGraph(*engine);
  ASSERT_EQ(v.size(), 200u);
  auto session = engine->CreateSession();
  CancelToken never;
  const std::string label = "l";

  // Three captured references: larger than std::function's small buffer,
  // like the operator closures that drive these visitors.
  uint64_t visits = 0, id_sum = 0, bytes = 0;
  auto on_id = [&](uint64_t id) {
    ++visits;
    id_sum += id;
    bytes += sizeof(id);
    return true;
  };
  auto on_label = [&](std::string_view l) {
    ++visits;
    id_sum += l.size();
    bytes += l.size();
    return true;
  };

  struct Call {
    const char* name;
    std::function<Status(VertexId)> run;
  };
  const std::vector<Call> calls = {
      {"ForEachNeighbor(kBoth)",
       [&](VertexId u) {
         return engine->ForEachNeighbor(*session, u, Direction::kBoth,
                                        nullptr, never, on_id);
       }},
      {"ForEachNeighbor(kOut, label)",
       [&](VertexId u) {
         return engine->ForEachNeighbor(*session, u, Direction::kOut, &label,
                                        never, on_id);
       }},
      {"ForEachEdgeOf(kBoth)",
       [&](VertexId u) {
         return engine->ForEachEdgeOf(*session, u, Direction::kBoth, nullptr,
                                      never, on_id);
       }},
      {"ForEachEdgeLabel(kBoth)",
       [&](VertexId u) {
         return engine->ForEachEdgeLabel(*session, u, Direction::kBoth,
                                         nullptr, never, on_label);
       }},
      {"ScanVertices",
       [&](VertexId) { return engine->ScanVertices(*session, never, on_id); }},
  };
  for (const Call& call : calls) {
    for (VertexId u : v) ASSERT_TRUE(call.run(u).ok()) << call.name;  // warmup
    visits = 0;
    uint64_t before = g_allocs;
    for (VertexId u : v) ASSERT_TRUE(call.run(u).ok()) << call.name;
    uint64_t allocs = g_allocs - before;
    EXPECT_GT(visits, 0u) << call.name;
    EXPECT_EQ(allocs, 0u) << call.name << ": "
                          << static_cast<double>(allocs) / v.size()
                          << " allocs/call";
  }
}

INSTANTIATE_TEST_SUITE_P(
    NativeLayoutEngines, VisitorAllocationTest,
    ::testing::Values("blaze", "neo19", "neo30", "sparksee", "sqlg",
                      "titan05"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The dedup set clears in O(1) and keeps its table (src/util/flat_set.h),
// so on a warm session dedup() costs no allocation per admitted row: the
// plan allocates no more per run than the same plan without it.
class DedupAllocationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DedupAllocationTest, WarmDedupAllocatesNoMoreThanWithoutIt) {
  auto engine = OpenEngine(GetParam(), EngineOptions{}).value();
  std::vector<VertexId> v = AddPropertylessGraph(*engine);
  ASSERT_EQ(v.size(), 200u);
  auto session = engine->CreateSession();
  CancelToken never;
  auto deduped =
      Traversal::V(Bound{}).BothE().Label().Dedup().Count().Prepare(*engine);
  auto plain = Traversal::V(Bound{}).BothE().Label().Count().Prepare(*engine);
  ASSERT_TRUE(deduped.ok()) << deduped.status();
  ASSERT_TRUE(plain.ok()) << plain.status();

  // Allocations of one pass over every vertex, after a warmup pass.
  auto measure = [&](const PreparedPlan& plan, uint64_t* rows) {
    PlanParams params;
    for (int pass = 0; pass < 2; ++pass) {
      const uint64_t before = g_allocs;
      *rows = 0;
      for (VertexId u : v) {
        params.id = u;
        auto n = plan.RunCount(*session, never, params);
        EXPECT_TRUE(n.ok()) << n.status();
        if (n.ok()) *rows += *n;
      }
      if (pass == 1) return g_allocs - before;
    }
    return uint64_t{0};
  };
  uint64_t deduped_rows = 0, plain_rows = 0;
  const uint64_t deduped_allocs = measure(*deduped, &deduped_rows);
  const uint64_t plain_allocs = measure(*plain, &plain_rows);
  EXPECT_EQ(deduped_rows, v.size());  // one label, every vertex has edges
  EXPECT_EQ(plain_rows, 2 * v.size());
  EXPECT_LE(deduped_allocs, plain_allocs)
      << static_cast<double>(deduped_allocs) / v.size()
      << " allocs/run with dedup(), "
      << static_cast<double>(plain_allocs) / v.size() << " without";
}

INSTANTIATE_TEST_SUITE_P(
    NativeLayoutEngines, DedupAllocationTest,
    ::testing::Values("blaze", "neo19", "neo30", "sparksee", "sqlg",
                      "titan05"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- Shared prepared-plan cache ---------------------------------------------

class PreparedQueryCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = OpenEngine("neo19", EngineOptions{}).value();
    v_ = AddPropertylessGraph(*engine_);
    ASSERT_EQ(v_.size(), 200u);
  }

  // A callable object: FunctionRef does not bind plain functions.
  const std::function<Traversal()> out_count_ = [] {
    return Traversal::V(Bound{}).Out().Count();
  };
  std::unique_ptr<GraphEngine> engine_;
  std::vector<VertexId> v_;
};

TEST_F(PreparedQueryCacheTest, RacingFirstLookupsLowerOnce) {
  core::PreparedQueryCache cache(engine_.get());
  constexpr int kThreads = 4;
  std::atomic<int> builds{0};
  std::atomic<int> ready{0};
  std::vector<const PreparedPlan*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto plan = cache.Get(23, [&] {
        builds.fetch_add(1);
        return out_count_();
      });
      if (plan.ok()) got[static_cast<size_t>(t)] = *plan;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(got[0], nullptr);
  for (const PreparedPlan* plan : got) EXPECT_EQ(plan, got[0]);
}

TEST_F(PreparedQueryCacheTest, PlansStayValidWhileOtherKeysFill) {
  core::PreparedQueryCache cache(engine_.get());
  auto first = cache.Get(22, out_count_);
  ASSERT_TRUE(first.ok()) << first.status();
  for (int key = 0; key < core::PreparedQueryCache::kSlots; ++key) {
    ASSERT_TRUE(cache.Get(key, out_count_).ok()) << key;
  }
  auto again = cache.Get(22, [this] {
    ADD_FAILURE() << "a cached key must not lower again";
    return out_count_();
  });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);

  // The first plan still runs: its address outlived every later insert.
  auto session = engine_->CreateSession();
  PlanParams params;
  params.id = v_[0];
  auto n = (*first)->RunCount(*session, CancelToken(), params);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1u);
}

TEST_F(PreparedQueryCacheTest, KeyOutsideTheSlotArrayIsInvalidArgument) {
  core::PreparedQueryCache cache(engine_.get());
  for (int key : {-1, core::PreparedQueryCache::kSlots}) {
    auto plan = cache.Get(key, out_count_);
    ASSERT_FALSE(plan.ok()) << key;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
        << plan.status();
  }
}

// --- Cost-based re-pricing ---------------------------------------------------

// With statistics present, a prepared V().has(tier, ?) is priced at the
// key-wide average; rebinding a value whose estimated cardinality falls
// in a different selectivity class transparently switches lowerings.
// Whatever plan PlanFor picks, every value must return the rebuild-
// golden results — re-pricing is a performance decision, never a
// correctness one.
TEST(PreparedPlanRepricingTest, RebindingAcrossSelectivityClassesStaysCorrect) {
  // Property "tier" spans three selectivity classes: hot ~ 1200 rows
  // (class 3), mid ~ 20 (class 1), rare = 2 (class 0).
  GraphData data;
  data.name = "repricing";
  for (int i = 0; i < 1222; ++i) {
    GraphData::Vertex v;
    v.label = "n";
    const char* tier = i < 1200 ? "hot" : (i < 1220 ? "mid" : "rare");
    v.properties.emplace_back("tier", PropertyValue(tier));
    data.vertices.push_back(std::move(v));
  }
  for (uint64_t i = 0; i + 1 < 1222; i += 2) {
    GraphData::Edge e;
    e.src = i;
    e.dst = i + 1;
    e.label = "pairs";
    data.edges.push_back(std::move(e));
  }
  CancelToken never;
  const char* kTiers[] = {"hot", "rare", "mid", "hot", "nobody", "rare"};

  for (const char* name : {"arango", "blaze", "neo19", "neo30", "orient",
                           "sparksee", "sqlg", "titan05", "titan10"}) {
    auto engine = OpenEngine(name, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << name;
    ASSERT_TRUE((*engine)->BulkLoad(data).ok()) << name;
    auto session = (*engine)->CreateSession();

    auto prepared =
        Traversal::V().Has("tier", Bound{}).Count().Prepare(**engine);
    ASSERT_TRUE(prepared.ok()) << name;

    bool repriced = false;
    for (int round = 0; round < 2; ++round) {  // 2nd round hits the cache
      for (const char* tier : kTiers) {
        PlanParams params;
        params.value = PropertyValue(tier);
        if (&prepared->PlanFor(params) != &prepared->plan()) repriced = true;
        auto n = prepared->RunCount(*session, never, params);
        ASSERT_TRUE(n.ok()) << name << "/" << tier;
        auto golden = Traversal::V()
                          .Has("tier", PropertyValue(tier))
                          .Count()
                          .ExecuteCount(**engine, *session, never);
        ASSERT_TRUE(golden.ok()) << name << "/" << tier;
        EXPECT_EQ(*n, *golden) << name << "/" << tier;
      }
    }
    // The class spread guarantees at least one rebind left the base
    // class, so the per-class cache must have been exercised.
    EXPECT_TRUE(repriced) << name;

    // Concurrent rebinding across classes races only on the cache's
    // construction mutex; results stay correct (TSan leg covers this).
    constexpr int kThreads = 4;
    std::vector<Status> failures(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::unique_ptr<QuerySession> worker = (*engine)->CreateSession();
        for (int i = 0; i < 16; ++i) {
          PlanParams params;
          params.value = PropertyValue(kTiers[(t + i) % 6]);
          auto n = prepared->RunCount(*worker, never, params);
          if (!n.ok()) {
            failures[static_cast<size_t>(t)] = n.status();
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : failures) EXPECT_TRUE(s.ok()) << name;
  }
}

}  // namespace
}  // namespace gdbmicro
