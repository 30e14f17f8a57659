#include "src/core/queries.h"

#include "src/graph/writer.h"
#include "src/query/algorithms.h"
#include "src/query/traversal.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace core {

using query::Bound;
using query::BreadthFirst;
using query::PreparedPlan;
using query::ShortestPath;
using query::Traversal;

Result<const PreparedPlan*> PreparedQueryCache::Get(
    int key, FunctionRef<query::Traversal()> build) const {
  if (key < 0 || key >= kSlots) {
    return Status::InvalidArgument(StrFormat(
        "prepared-plan key %d outside [0, %d)", key, kSlots));
  }
  // Acquire pairs with the release below: a hit sees the lowered plan.
  if (const PreparedPlan* plan = slots_[key].load(std::memory_order_acquire)) {
    return plan;
  }
  std::lock_guard<std::mutex> lock(build_mu_);
  if (const PreparedPlan* plan = slots_[key].load(std::memory_order_relaxed)) {
    return plan;  // lowered by a thread that held the mutex first
  }
  GDB_ASSIGN_OR_RETURN(PreparedPlan plan, build().Prepare(*engine_));
  owned_[key] = std::make_unique<PreparedPlan>(std::move(plan));
  slots_[key].store(owned_[key].get(), std::memory_order_release);
  return owned_[key].get();
}

const PreparedQueryCache& QueryContext::prepared_cache() {
  if (prepared != nullptr) return *prepared;
  if (local_prepared_ == nullptr) {
    local_prepared_ = std::make_unique<PreparedQueryCache>(engine);
  }
  return *local_prepared_;
}

Result<uint64_t> QueryContext::Commit(const WriteBatch& batch) {
  if (writer != nullptr) {
    GDB_ASSIGN_OR_RETURN(CommitReceipt receipt, writer->Commit(batch));
    (void)receipt;
  } else {
    GDB_RETURN_IF_ERROR(ApplyWriteBatch(*engine, batch));
  }
  return batch.size();
}

std::string_view CategoryToString(Category c) {
  switch (c) {
    case Category::kLoad:
      return "L";
    case Category::kCreate:
      return "C";
    case Category::kRead:
      return "R";
    case Category::kUpdate:
      return "U";
    case Category::kDelete:
      return "D";
    case Category::kTraversal:
      return "T";
  }
  return "?";
}

namespace {

// Bounded loop depth for the shortest-path queries (Gremlin loops in the
// suite are depth-bounded; 30 exceeds every dataset's diameter).
constexpr int kPathMaxDepth = 30;

/// Runs the prepared plan for `key` (lowered from `build()` once per
/// loaded engine) with the context's rebindable parameter slots and
/// returns the result cardinality. This is the read queries' hot path:
/// no per-iteration traversal rebuild, no re-lowering, and the run
/// collects into session-scratch buffers (see plan.h).
Result<QueryResult> RunPreparedCount(
    QueryContext& ctx, int key, FunctionRef<Traversal()> build) {
  GDB_ASSIGN_OR_RETURN(const PreparedPlan* plan,
                       ctx.prepared_cache().Get(key, build));
  GDB_ASSIGN_OR_RETURN(uint64_t n,
                       plan->RunCount(*ctx.session, ctx.cancel, ctx.params));
  return QueryResult{n};
}

QuerySpec Make(int number, std::string gremlin, std::string description,
               Category category, bool mutates,
               std::function<Result<QueryResult>(QueryContext&)> run,
               int variant = 0) {
  QuerySpec spec;
  spec.number = number;
  spec.variant = variant;
  spec.name = variant == 0 ? StrFormat("Q%d", number)
                           : StrFormat("Q%d(d=%d)", number, variant);
  spec.gremlin = std::move(gremlin);
  spec.description = std::move(description);
  spec.category = category;
  spec.mutates = mutates;
  spec.run = std::move(run);
  return spec;
}

std::vector<QuerySpec> BuildCatalog() {
  std::vector<QuerySpec> catalog;

  // ---- C: Create (Q.2-Q.7) ----------------------------------------------
  //
  // Every mutating spec stages a WriteBatch and hands it to
  // QueryContext::Commit: under the sequential runner it applies directly
  // (same engine calls as before), under mixed read/write mode the same
  // batch goes through the single-writer WAL commit path.
  catalog.push_back(Make(
      2, "g.addVertex(p[])", "Create new node with properties p",
      Category::kCreate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.AddVertex("benchnode", ctx.workload->NewProperties(ctx.iteration));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      3, "g.addEdge(v1, v2, l)", "Add edge l from v1 to v2",
      Category::kCreate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.AddEdge(ctx.workload->ReadVertex(2 * ctx.iteration),
                      ctx.workload->ReadVertex(2 * ctx.iteration + 1),
                      ctx.workload->EdgeLabel(ctx.iteration), {});
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      4, "g.addEdge(v1, v2, l, p[])", "Same as Q.3, but with properties p",
      Category::kCreate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.AddEdge(ctx.workload->ReadVertex(2 * ctx.iteration),
                      ctx.workload->ReadVertex(2 * ctx.iteration + 1),
                      ctx.workload->EdgeLabel(ctx.iteration),
                      ctx.workload->NewProperties(ctx.iteration));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      5, "v.setProperty(Name, Value)", "Add property Name=Value to node v",
      Category::kCreate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.SetVertexProperty(ctx.workload->ReadVertex(500 + ctx.iteration),
                                "bench_new_prop",
                                PropertyValue(static_cast<int64_t>(ctx.iteration)));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      6, "e.setProperty(Name, Value)", "Add property Name=Value to edge e",
      Category::kCreate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.SetEdgeProperty(
            EdgeRef(ctx.workload->ReadEdge(600 + ctx.iteration)),
            "bench_new_prop", PropertyValue(static_cast<int64_t>(ctx.iteration)));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      7, "g.addVertex(...); g.addEdge(...)",
      "Add a new node, and then edges to it", Category::kCreate, true,
      [](QueryContext& ctx) -> Result<QueryResult> {
        // One atomic batch: the new vertex plus its fan-out edges, wired
        // through the batch's pending-handle forward reference.
        WriteBatch batch;
        PendingVertex v = batch.AddVertex(
            "benchnode", ctx.workload->NewProperties(ctx.iteration));
        constexpr int kFanOut = 5;
        for (int i = 0; i < kFanOut; ++i) {
          batch.AddEdge(v,
                        ctx.workload->ReadVertex(700 + ctx.iteration * kFanOut +
                                                 i),
                        ctx.workload->EdgeLabel(i), {});
        }
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));

  // ---- R: Read (Q.8-Q.15) -------------------------------------------------
  catalog.push_back(Make(
      8, "g.V.count()", "Total number of nodes", Category::kRead, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.engine->CountVertices(*ctx.session, ctx.cancel));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      9, "g.E.count()", "Total number of edges", Category::kRead, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.engine->CountEdges(*ctx.session, ctx.cancel));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      10, "g.E.label.dedup()", "Existing edge labels (no duplicates)",
      Category::kRead, false, [](QueryContext& ctx) -> Result<QueryResult> {
        GDB_ASSIGN_OR_RETURN(std::vector<std::string> labels,
                             ctx.engine->DistinctEdgeLabels(*ctx.session, ctx.cancel));
        return QueryResult{labels.size()};
      }));
  catalog.push_back(Make(
      11, "g.V.has(Name, Value)", "Nodes with property Name=Value",
      Category::kRead, false, [](QueryContext& ctx) -> Result<QueryResult> {
        auto [name, value] = ctx.workload->VertexProperty(ctx.iteration);
        GDB_ASSIGN_OR_RETURN(
            std::vector<VertexId> ids,
            ctx.engine->FindVerticesByProperty(*ctx.session, name, value, ctx.cancel));
        return QueryResult{ids.size()};
      }));
  catalog.push_back(Make(
      12, "g.E.has(Name, Value)", "Edges with property Name=Value",
      Category::kRead, false, [](QueryContext& ctx) -> Result<QueryResult> {
        auto [name, value] = ctx.workload->EdgeProperty(ctx.iteration);
        GDB_ASSIGN_OR_RETURN(
            std::vector<EdgeId> ids,
            ctx.engine->FindEdgesByProperty(*ctx.session, name, value, ctx.cancel));
        return QueryResult{ids.size()};
      }));
  catalog.push_back(Make(
      13, "g.E.has('label', l)", "Edges with label l", Category::kRead, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        GDB_ASSIGN_OR_RETURN(
            std::vector<EdgeId> ids,
            ctx.engine->FindEdgesByLabel(*ctx.session, ctx.workload->EdgeLabel(ctx.iteration),
                                         ctx.cancel));
        return QueryResult{ids.size()};
      }));
  catalog.push_back(Make(
      14, "g.V(id)", "The node with identifier id", Category::kRead, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        ctx.params.id = ctx.workload->ReadVertex(ctx.iteration);
        return RunPreparedCount(ctx, 14, [] { return Traversal::V(Bound{}); });
      }));
  catalog.push_back(Make(
      15, "g.E(id)", "The edge with identifier id", Category::kRead, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        ctx.params.id = ctx.workload->ReadEdge(ctx.iteration);
        return RunPreparedCount(ctx, 15, [] { return Traversal::E(Bound{}); });
      }));

  // ---- U: Update (Q.16, Q.17) ----------------------------------------------
  catalog.push_back(Make(
      16, "v.setProperty(Name, Value)", "Update property Name for vertex v",
      Category::kUpdate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        auto [name, value] = ctx.workload->VertexProperty(ctx.iteration);
        (void)value;
        WriteBatch batch;
        batch.SetVertexProperty(ctx.workload->ReadVertex(1600 + ctx.iteration),
                                name,
                                PropertyValue(StrFormat("updated-%d",
                                                        ctx.iteration)));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      17, "e.setProperty(Name, Value)", "Update property Name for edge e",
      Category::kUpdate, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.SetEdgeProperty(
            EdgeRef(ctx.workload->ReadEdge(1700 + ctx.iteration)), "weight",
            PropertyValue(static_cast<int64_t>(ctx.iteration)));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));

  // ---- D: Delete (Q.18-Q.21) -------------------------------------------------
  //
  // Removes are idempotent through the batch path: a victim already gone
  // (Q.18 cascades into Q.19's pool; concurrent writers race on victim
  // streams in mixed mode) is a no-op, not an error.
  catalog.push_back(Make(
      18, "g.removeVertex(id)", "Delete node identified by id",
      Category::kDelete, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.RemoveVertex(ctx.workload->DeleteVertex(1800 + ctx.iteration));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      19, "g.removeEdge(id)", "Delete edge identified by id",
      Category::kDelete, true, [](QueryContext& ctx) -> Result<QueryResult> {
        WriteBatch batch;
        batch.RemoveEdge(
            EdgeRef(ctx.workload->DeleteEdge(1900 + ctx.iteration)));
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      20, "v.removeProperty(Name)", "Remove node property Name from v",
      Category::kDelete, true, [](QueryContext& ctx) -> Result<QueryResult> {
        uint64_t index = ctx.workload->ReadVertexIndex(2000 + ctx.iteration);
        const auto& props = ctx.workload->data().vertices[index].properties;
        if (props.empty()) return QueryResult{0};
        WriteBatch batch;
        batch.RemoveVertexProperty(ctx.workload->mapping().vertex_ids[index],
                                   props.front().first);
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));
  catalog.push_back(Make(
      21, "e.removeProperty(Name)", "Remove edge property Name from e",
      Category::kDelete, true, [](QueryContext& ctx) -> Result<QueryResult> {
        uint64_t index = ctx.workload->ReadEdgeIndex(2100 + ctx.iteration);
        const auto& props = ctx.workload->data().edges[index].properties;
        // Datasets without edge properties measure the miss path.
        std::string name = props.empty() ? "weight" : props.front().first;
        WriteBatch batch;
        batch.RemoveEdgeProperty(
            EdgeRef(ctx.workload->mapping().edge_ids[index]), name);
        GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
        return QueryResult{n};
      }));

  // ---- T: Traversals (Q.22-Q.35) ------------------------------------------------
  //
  // The traversal reads run through prepared plans: lowered once per
  // loaded engine, per-iteration arguments (start vertex, edge label)
  // rebound through the context's PlanParams slots. The plans stream the
  // same adjacency visitors the direct calls used, so the measured
  // engine work is unchanged — only the per-iteration harness overhead
  // (rebuild + re-lower + materialized neighbor vectors) is gone.
  auto neighbors = [](QueryContext& ctx, int key, Direction dir,
                      bool with_label) -> Result<QueryResult> {
    ctx.params.id = ctx.workload->ReadVertex(ctx.iteration);
    if (with_label) ctx.params.label = ctx.workload->EdgeLabel(ctx.iteration);
    return RunPreparedCount(ctx, key, [dir, with_label] {
      Traversal t = Traversal::V(Bound{});
      switch (dir) {
        case Direction::kIn:
          with_label ? t.In(Bound{}) : t.In();
          break;
        case Direction::kOut:
          with_label ? t.Out(Bound{}) : t.Out();
          break;
        case Direction::kBoth:
          with_label ? t.Both(Bound{}) : t.Both();
          break;
      }
      t.Count();
      return t;
    });
  };
  catalog.push_back(Make(22, "v.in()",
                         "Nodes adjacent to v via incoming edges",
                         Category::kTraversal, false,
                         [neighbors](QueryContext& ctx) {
                           return neighbors(ctx, 22, Direction::kIn, false);
                         }));
  catalog.push_back(Make(23, "v.out()",
                         "Nodes adjacent to v via outgoing edges",
                         Category::kTraversal, false,
                         [neighbors](QueryContext& ctx) {
                           return neighbors(ctx, 23, Direction::kOut, false);
                         }));
  catalog.push_back(Make(24, "v.both('l')",
                         "Nodes adjacent to v via edges labeled l",
                         Category::kTraversal, false,
                         [neighbors](QueryContext& ctx) {
                           return neighbors(ctx, 24, Direction::kBoth, true);
                         }));

  auto edge_labels = [](QueryContext& ctx, int key,
                        Direction dir) -> Result<QueryResult> {
    ctx.params.id = ctx.workload->ReadVertex(ctx.iteration);
    return RunPreparedCount(ctx, key, [dir] {
      Traversal t = Traversal::V(Bound{});
      switch (dir) {
        case Direction::kIn:
          t.InE();
          break;
        case Direction::kOut:
          t.OutE();
          break;
        case Direction::kBoth:
          t.BothE();
          break;
      }
      t.Label().Dedup().Count();
      return t;
    });
  };
  catalog.push_back(Make(25, "v.inE.label.dedup()",
                         "Labels of incoming edges of v (no dupl.)",
                         Category::kTraversal, false,
                         [edge_labels](QueryContext& ctx) {
                           return edge_labels(ctx, 25, Direction::kIn);
                         }));
  catalog.push_back(Make(26, "v.outE.label.dedup()",
                         "Labels of outgoing edges of v (no dupl.)",
                         Category::kTraversal, false,
                         [edge_labels](QueryContext& ctx) {
                           return edge_labels(ctx, 26, Direction::kOut);
                         }));
  catalog.push_back(Make(27, "v.bothE.label.dedup()",
                         "Labels of edges of v (no dupl.)",
                         Category::kTraversal, false,
                         [edge_labels](QueryContext& ctx) {
                           return edge_labels(ctx, 27, Direction::kBoth);
                         }));

  auto degree_filter = [](QueryContext& ctx, int key,
                          Direction dir) -> Result<QueryResult> {
    uint64_t k = ctx.workload->DegreeK();
    return RunPreparedCount(ctx, key, [dir, k] {
      return Traversal::V().WhereDegreeAtLeast(dir, k).Count();
    });
  };
  catalog.push_back(Make(28, "g.V.filter{it.inE.count()>=k}",
                         "Nodes of at least k-incoming-degree",
                         Category::kTraversal, false,
                         [degree_filter](QueryContext& ctx) {
                           return degree_filter(ctx, 28, Direction::kIn);
                         }));
  catalog.push_back(Make(29, "g.V.filter{it.outE.count()>=k}",
                         "Nodes of at least k-outgoing-degree",
                         Category::kTraversal, false,
                         [degree_filter](QueryContext& ctx) {
                           return degree_filter(ctx, 29, Direction::kOut);
                         }));
  catalog.push_back(Make(30, "g.V.filter{it.bothE.count()>=k}",
                         "Nodes of at least k-degree", Category::kTraversal,
                         false, [degree_filter](QueryContext& ctx) {
                           return degree_filter(ctx, 30, Direction::kBoth);
                         }));
  catalog.push_back(Make(
      31, "g.V.out.dedup()", "Nodes having an incoming edge",
      Category::kTraversal, false, [](QueryContext& ctx) -> Result<QueryResult> {
        return RunPreparedCount(
            ctx, 31, [] { return Traversal::V().Out().Dedup().Count(); });
      }));

  for (int depth : {2, 3, 4, 5}) {
    catalog.push_back(Make(
        32, "v.as('i').both().except(vs).store(vs).loop('i')",
        StrFormat("Breadth-first traversal from v, depth %d", depth),
        Category::kTraversal, false,
        [depth](QueryContext& ctx) -> Result<QueryResult> {
          GDB_ASSIGN_OR_RETURN(
              query::BfsResult r,
              BreadthFirst(*ctx.engine, *ctx.session,
                           ctx.workload->PathEndpoints(ctx.iteration).first,
                           depth, std::nullopt, ctx.cancel));
          return QueryResult{r.visited.size()};
        },
        depth));
  }
  for (int depth : {2, 3, 4, 5}) {
    catalog.push_back(Make(
        33, "v.as('i').both(*ls).except(vs).store(vs).loop('i')",
        StrFormat("Label-filtered breadth-first traversal, depth %d", depth),
        Category::kTraversal, false,
        [depth](QueryContext& ctx) -> Result<QueryResult> {
          GDB_ASSIGN_OR_RETURN(
              query::BfsResult r,
              BreadthFirst(*ctx.engine, *ctx.session,
                           ctx.workload->PathEndpoints(ctx.iteration).first,
                           depth, ctx.workload->EdgeLabel(ctx.iteration),
                           ctx.cancel));
          return QueryResult{r.visited.size()};
        },
        depth));
  }
  catalog.push_back(Make(
      34,
      "v1.as('i').both().except(j).store(j).loop('i'){...}.retain([v2]).path()",
      "Unweighted shortest path from v1 to v2", Category::kTraversal, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        auto [src, dst] = ctx.workload->PathEndpoints(ctx.iteration);
        GDB_ASSIGN_OR_RETURN(query::PathResult r,
                             ShortestPath(*ctx.engine, *ctx.session, src, dst, std::nullopt,
                                          kPathMaxDepth, ctx.cancel));
        return QueryResult{r.path.size()};
      }));
  catalog.push_back(Make(
      35, "Shortest Path on 'l'", "Same as Q.34, but only following label l",
      Category::kTraversal, false,
      [](QueryContext& ctx) -> Result<QueryResult> {
        auto [src, dst] = ctx.workload->PathEndpoints(ctx.iteration);
        GDB_ASSIGN_OR_RETURN(
            query::PathResult r,
            ShortestPath(*ctx.engine, *ctx.session, src, dst,
                         ctx.workload->EdgeLabel(ctx.iteration), kPathMaxDepth,
                         ctx.cancel));
        return QueryResult{r.path.size()};
      }));

  return catalog;
}

}  // namespace

const std::vector<QuerySpec>& QueryCatalog() {
  static const std::vector<QuerySpec>* catalog =
      new std::vector<QuerySpec>(BuildCatalog());
  return *catalog;
}

std::vector<const QuerySpec*> QueriesByNumber(
    const std::vector<int>& numbers) {
  std::vector<const QuerySpec*> out;
  for (const QuerySpec& spec : QueryCatalog()) {
    for (int n : numbers) {
      if (spec.number == n) {
        out.push_back(&spec);
        break;
      }
    }
  }
  return out;
}

}  // namespace core
}  // namespace gdbmicro
