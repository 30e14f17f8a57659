#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>

#include "src/graph/writer.h"
#include "src/query/algorithms.h"
#include "src/query/governor.h"
#include "src/query/plan.h"
#include "src/query/traversal.h"

namespace perfbench {

namespace {

using gdbmicro::CancelToken;
using gdbmicro::Direction;
using gdbmicro::EdgeId;
using gdbmicro::GraphEngine;
using gdbmicro::QuerySession;
using gdbmicro::VertexId;
namespace query = gdbmicro::query;

// Spans are kept for this many ops per client slot and engine.
constexpr uint64_t kSpanOps = 300;
// Hop bound of the catalog's Q.34/Q.35.
constexpr int kPathMaxDepth = 30;

bool IsPlanOp(int n) { return n == 14 || n == 15 || (n >= 22 && n <= 31); }
bool IsPathOp(int n) { return n >= 32 && n <= 35; }
// Plans whose engine work is exactly a lookup plus one adjacency walk.
bool IsLookupShaped(int n) { return n == 14 || n == 15 || (n >= 22 && n <= 27); }

int32_t Clamp32(int64_t ns) {
  return static_cast<int32_t>(
      std::clamp<int64_t>(ns, std::numeric_limits<int32_t>::min(),
                          std::numeric_limits<int32_t>::max()));
}

Direction DirOf(int n) {
  switch (n) {
    case 22:
    case 25:
      return Direction::kIn;
    case 23:
    case 26:
      return Direction::kOut;
    default:
      return Direction::kBoth;
  }
}

/// The catalog's parameters of path op `op`: endpoints and label.
struct PathArgs {
  VertexId src = 0;
  VertexId dst = 0;
  std::optional<std::string> label;
};

PathArgs PathArgsOf(const Variant& v, const Op& op) {
  const gdbmicro::datasets::Workload& w = *v.loaded.workload;
  PathArgs a;
  std::tie(a.src, a.dst) = w.PathEndpoints(op.iteration);
  const int n = op.spec->number;
  if (n == 33 || n == 35) a.label = w.EdgeLabel(op.iteration);
  return a;
}

/// Re-runs path op `op` through BreadthFirst/ShortestPath for its stats.
Result<query::PathSearchStats> PathSearch(const Variant& v,
                                          QuerySession& session, const Op& op,
                                          const PathArgs& a,
                                          const CancelToken& token) {
  const GraphEngine& engine = *v.loaded.engine;
  if (op.spec->number <= 33) {
    GDB_ASSIGN_OR_RETURN(query::BfsResult r,
                         query::BreadthFirst(engine, session, a.src,
                                             op.spec->variant, a.label, token));
    return r.stats;
  }
  GDB_ASSIGN_OR_RETURN(query::PathResult r,
                       query::ShortestPath(engine, session, a.src, a.dst,
                                           a.label, kPathMaxDepth, token));
  return r.stats;
}

/// The prepared plan the catalog cached for plan op `number` (it ran
/// once already, so the cache holds it and `build` is never called).
Result<const query::PreparedPlan*> CachedPlan(const core::QueryContext& ctx,
                                              int number) {
  return ctx.prepared->Get(number, [] { return query::Traversal::V(); });
}

}  // namespace

Tracer::Tracer(const Bench& b, int slots)
    : b_(b), slots_(static_cast<size_t>(slots) * b.variants.size()) {}

Status Tracer::Exec(Variant& v, core::QueryContext& ctx,
                    QuerySession* session, const Op& op, int slot,
                    uint64_t* items, int64_t* ns) {
  const size_t e = static_cast<size_t>(&v - b_.variants.data());
  Slot& s = slots_[static_cast<size_t>(slot) * b_.variants.size() + e];
  const uint64_t op_id = ++s.layers.ops;
  auto span = [&](const char* name, int64_t start, int64_t end,
                  uint64_t count) {
    if (op_id <= kSpanOps) s.spans.push_back({op_id, name, start, end - start, count});
  };

  const int64_t t0 = NowNs();
  std::unique_ptr<QuerySession> own;
  if (!op.spec->mutates) {
    // A read either runs on a session created for it (the concurrent
    // workload) or, on a long-lived session, pays a probe creation that
    // measures the same epoch pin.
    const int64_t c0 = NowNs();
    std::unique_ptr<QuerySession> created = v.loaded.engine->CreateSession();
    const int64_t c1 = NowNs();
    s.layers.session_ns.push_back(Clamp32(c1 - c0));
    span("GraphEngine::CreateSession", c0, c1, 0);
    if (session == nullptr) {
      own = std::move(created);
      session = own.get();
    }
  }
  ctx.session = session;
  const int64_t g0 = NowNs();
  query::ResourceGovernor governor({kOpDeadline, /*memory_budget_bytes=*/0});
  ctx.cancel = governor.token();
  const int64_t g1 = NowNs();
  s.layers.governor_ns.push_back(Clamp32(g1 - g0));
  span("query::ResourceGovernor", g0, g1, 0);
  if (session != nullptr) session->BeginQuery();
  ctx.iteration = op.iteration;
  const int64_t r0 = NowNs();
  Result<core::QueryResult> r = op.spec->run(ctx);
  const int64_t r1 = NowNs();
  *ns = r1 - t0;
  *items = r.ok() ? r->items : 0;
  span("core::QuerySpec::run", r0, r1, *items);
  if (!r.ok()) return r.status();
  if (op.spec->mutates) {
    s.layers.commit_ns.push_back(Clamp32(r1 - r0));
    return Status::OK();
  }
  ReExecute(v, ctx, *session, op, op_id, s);
  return Status::OK();
}

void Tracer::ReExecute(Variant& v, core::QueryContext& ctx,
                       QuerySession& session, const Op& op,
                       uint64_t op_id, Slot& s) {
  const GraphEngine& engine = *v.loaded.engine;
  const CancelToken& token = ctx.cancel;
  const query::PlanParams& params = ctx.params;
  const int number = op.spec->number;
  Layers& l = s.layers;
  auto span = [&](const char* name, int64_t start, int64_t end,
                  uint64_t count) {
    if (op_id <= kSpanOps) s.spans.push_back({op_id, name, start, end - start, count});
  };
  auto lookup = [&](auto&& call, const char* name) {
    const int64_t t0 = NowNs();
    (void)call();
    const int64_t t1 = NowNs();
    l.lookup_ns.push_back(Clamp32(t1 - t0));
    span(name, t0, t1, 1);
    return t1 - t0;
  };
  auto neighbors = [&](VertexId id, Direction dir, const std::string* label) {
    uint64_t n = 0;
    const int64_t t0 = NowNs();
    (void)engine.ForEachNeighbor(session, id, dir, label, token,
                                 [&n](VertexId) {
                                   ++n;
                                   return true;
                                 });
    const int64_t t1 = NowNs();
    // A label-filtered walk visits edges it does not report, so only
    // unfiltered walks give a per-edge cost.
    if (label == nullptr) {
      l.adjacency_ns += static_cast<double>(t1 - t0);
      l.adjacency_edges += n;
    }
    span("GraphEngine::ForEachNeighbor", t0, t1, n);
    return t1 - t0;
  };

  int64_t plan_ns = -1;
  if (IsPlanOp(number)) {
    Result<const query::PreparedPlan*> plan = CachedPlan(ctx, number);
    if (plan.ok()) {
      // Each re-execution is a query of its own on the session (engines
      // with per-query working memory reset it here). The op itself runs
      // again first, so QuerySpec::run and RunCount are compared at the
      // same cache warmth.
      session.BeginQuery();
      const int64_t w0 = NowNs();
      (void)op.spec->run(ctx);
      const int64_t w1 = NowNs();
      span("core::QuerySpec::run (warm)", w0, w1, 0);
      session.BeginQuery();
      const int64_t p0 = NowNs();
      (void)(*plan)->RunCount(session, token, params);
      const int64_t p1 = NowNs();
      plan_ns = p1 - p0;
      l.op_self_ns.push_back(Clamp32((w1 - w0) - plan_ns));
      span("query::PreparedPlan::RunCount", p0, p1, 0);
    }
  }

  int64_t primitive_ns = 0;
  session.BeginQuery();
  if (number == 15) {
    primitive_ns = lookup([&] { return engine.GetEdge(session, params.id); },
                          "GraphEngine::GetEdge");
  } else if (number == 14 || (number >= 22 && number <= 27)) {
    primitive_ns = lookup([&] { return engine.GetVertex(session, params.id); },
                          "GraphEngine::GetVertex");
  }
  if (number >= 22 && number <= 24) {
    primitive_ns += neighbors(params.id, DirOf(number),
                              number == 24 ? &params.label : nullptr);
  } else if (number >= 25 && number <= 27) {
    // inE/outE/bothE then label(): the edge walk plus one GetEdgeEnds per
    // edge, as the lowered plan does.
    s.edge_buf.clear();
    const int64_t a0 = NowNs();
    (void)engine.ForEachEdgeOf(session, params.id, DirOf(number), nullptr,
                               token, [&s](EdgeId id) {
                                 s.edge_buf.push_back(id);
                                 return true;
                               });
    const int64_t a1 = NowNs();
    for (EdgeId id : s.edge_buf) (void)engine.GetEdgeEnds(session, id);
    const int64_t a2 = NowNs();
    l.adjacency_ns += static_cast<double>(a1 - a0);
    l.adjacency_edges += s.edge_buf.size();
    span("GraphEngine::ForEachEdgeOf", a0, a1, s.edge_buf.size());
    span("GraphEngine::GetEdgeEnds", a1, a2, s.edge_buf.size());
    primitive_ns += a2 - a0;
  } else if (IsPathOp(number)) {
    const PathArgs a = PathArgsOf(v, op);
    const int64_t q0 = NowNs();
    Result<query::PathSearchStats> stats = PathSearch(v, session, op, a, token);
    const int64_t q1 = NowNs();
    const uint64_t expanded = stats.ok() ? stats->expanded : 0;
    if (number <= 33) {
      l.bfs_ns += static_cast<double>(q1 - q0);
      l.bfs_expanded += expanded;
      span("query::BreadthFirst", q0, q1, expanded);
    } else {
      l.sp_ns += static_cast<double>(q1 - q0);
      l.sp_expanded += expanded;
      span("query::ShortestPath", q0, q1, expanded);
    }
  }
  if (IsLookupShaped(number) && plan_ns >= 0) {
    l.plan_self_ns.push_back(Clamp32(plan_ns - primitive_ns));
  }
}

void Tracer::Layers::Merge(const Layers& o) {
  auto append = [](std::vector<int32_t>& to, const std::vector<int32_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  ops += o.ops;
  append(governor_ns, o.governor_ns);
  append(op_self_ns, o.op_self_ns);
  append(plan_self_ns, o.plan_self_ns);
  append(lookup_ns, o.lookup_ns);
  adjacency_ns += o.adjacency_ns;
  adjacency_edges += o.adjacency_edges;
  bfs_ns += o.bfs_ns;
  bfs_expanded += o.bfs_expanded;
  sp_ns += o.sp_ns;
  sp_expanded += o.sp_expanded;
  append(session_ns, o.session_ns);
  append(commit_ns, o.commit_ns);
}

Tracer::Layers Tracer::Total(size_t variant) const {
  Layers t;
  for (size_t i = variant; i < slots_.size(); i += b_.variants.size()) {
    t.Merge(slots_[i].layers);
  }
  return t;
}

Result<size_t> Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  size_t written = 0;
  const size_t n = b_.variants.size();
  for (size_t i = 0; i < slots_.size(); ++i) {
    for (const Span& s : slots_[i].spans) {
      std::fprintf(f,
                   "{\"engine\":\"%s\",\"client\":%zu,\"op\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"dur_ns\":%lld,"
                   "\"count\":%llu}\n",
                   b_.variants[i % n].name.c_str(), i / n,
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.dur_ns),
                   static_cast<unsigned long long>(s.count));
      ++written;
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return written;
}

Result<Counters> CountPass(Variant& v, const std::vector<Op>& ops,
                           bool session_per_op) {
  Counters c;
  core::QueryContext ctx;
  BindContext(v.loaded, ctx);
  std::unique_ptr<QuerySession> pass_session;
  if (!session_per_op) pass_session = v.loaded.engine->CreateSession();
  query::TraversalOutput out;
  query::PlanStats stats;
  for (const Op& op : ops) {
    std::unique_ptr<QuerySession> own;
    if (session_per_op) own = v.loaded.engine->CreateSession();
    QuerySession& session = own ? *own : *pass_session;
    ctx.session = &session;
    query::ResourceGovernor governor({kOpDeadline, /*memory_budget_bytes=*/0});
    ctx.cancel = governor.token();
    session.BeginQuery();
    ctx.iteration = op.iteration;
    const uint64_t a0 = ThreadAllocs();
    Result<core::QueryResult> r = op.spec->run(ctx);
    c.allocs += ThreadAllocs() - a0;
    ++c.ops;
    if (!r.ok()) {
      if (r.status().IsResourceExhausted() && ModelsMemoryLimit(v.name)) {
        continue;  // counted as failed in the timed phases
      }
      return Status::Internal(v.name + " " + op.spec->name + ": " +
                              r.status().ToString());
    }
    const int number = op.spec->number;
    if (IsPlanOp(number)) {
      GDB_ASSIGN_OR_RETURN(const query::PreparedPlan* plan,
                           CachedPlan(ctx, number));
      session.BeginQuery();
      stats = {};
      GDB_RETURN_IF_ERROR(
          plan->RunInto(session, ctx.cancel, ctx.params, &out, &stats));
      c.rows += std::accumulate(stats.rows_out.begin(), stats.rows_out.end(),
                                uint64_t{0});
      c.results += r->items;
    } else if (IsPathOp(number)) {
      session.BeginQuery();
      GDB_ASSIGN_OR_RETURN(
          query::PathSearchStats ps,
          PathSearch(v, session, op, PathArgsOf(v, op), ctx.cancel));
      ++c.path_ops;
      if (ps.used_index) ++c.index_answers;
      if (number >= 34) {
        ++c.sp_ops;
        c.sp_expanded += ps.expanded;
      }
    }
  }
  return c;
}

Result<double> ScanNsPerElement(const Variant& v, int passes) {
  std::vector<double> per_elem;
  std::unique_ptr<QuerySession> session = v.loaded.engine->CreateSession();
  CancelToken token;
  for (int p = 0; p < passes; ++p) {
    uint64_t n = 0;
    const int64_t t0 = NowNs();
    GDB_RETURN_IF_ERROR(v.loaded.engine->ScanVertices(*session, token,
                                                      [&n](VertexId) {
                                                        ++n;
                                                        return true;
                                                      }));
    GDB_RETURN_IF_ERROR(v.loaded.engine->ScanEdges(
        *session, token, [&n](const gdbmicro::EdgeEnds&) {
          ++n;
          return true;
        }));
    const int64_t t1 = NowNs();
    per_elem.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(std::max<uint64_t>(1, n)));
  }
  return Median(per_elem);
}

Result<double> StandaloneWalLogUs(Variant& v) {
  using gdbmicro::Wal;
  using gdbmicro::WriteBatch;
  using gdbmicro::WriteOp;
  Wal& wal = v.loaded.writer->wal();
  std::vector<WriteBatch> batches;
  GDB_RETURN_IF_ERROR(
      wal.Recover([&batches](const Wal::RecoveredBatch& rb) {
           WriteBatch batch;
           for (const WriteOp& op : rb.ops) {
             switch (op.kind) {
               case WriteOp::Kind::kAddVertex:
                 batch.AddVertex(op.name, op.props);
                 break;
               case WriteOp::Kind::kAddEdge:
                 batch.AddEdge(op.src, op.dst, op.name, op.props);
                 break;
               case WriteOp::Kind::kSetVertexProperty:
                 batch.SetVertexProperty(op.src, op.name, op.value);
                 break;
               case WriteOp::Kind::kSetEdgeProperty:
                 batch.SetEdgeProperty(op.edge, op.name, op.value);
                 break;
               case WriteOp::Kind::kRemoveVertex:
                 batch.RemoveVertex(op.src);
                 break;
               case WriteOp::Kind::kRemoveEdge:
                 batch.RemoveEdge(op.edge);
                 break;
               case WriteOp::Kind::kRemoveVertexProperty:
                 batch.RemoveVertexProperty(op.src, op.name);
                 break;
               case WriteOp::Kind::kRemoveEdgeProperty:
                 batch.RemoveEdgeProperty(op.edge, op.name);
                 break;
             }
           }
           batches.push_back(std::move(batch));
           return Status::OK();
         })
          .status());
  if (batches.empty()) return Status::Internal(v.name + ": WAL holds no batch");
  Wal standalone(wal.options());
  const int64_t t0 = NowNs();
  for (const WriteBatch& batch : batches) {
    GDB_RETURN_IF_ERROR(standalone.LogBatch(batch).status());
  }
  const int64_t t1 = NowNs();
  return static_cast<double>(t1 - t0) / 1e3 /
         static_cast<double>(batches.size());
}

}  // namespace perfbench
