// The microbenchmark query catalog: the paper's Table 2, operational.
//
// Each QuerySpec carries the original Gremlin text, the category tag
// (L/C/R/U/D/T), and an executable implementation over the GraphEngine
// interface — the same decomposition into primitive operations the paper's
// suite performs through the TinkerPop adapters. Parametrized classes
// (BFS depth, label-filtered variants) appear as separate specs so that
// every figure's series has its own entry, giving ~70 tests across single
// and batch modes as in the paper.

#ifndef GDBMICRO_CORE_QUERIES_H_
#define GDBMICRO_CORE_QUERIES_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/datasets/workload.h"
#include "src/graph/engine.h"
#include "src/query/traversal.h"

namespace gdbmicro {

class GraphWriter;
class WriteBatch;

namespace core {

enum class Category {
  kLoad,      // L
  kCreate,    // C
  kRead,      // R
  kUpdate,    // U
  kDelete,    // D
  kTraversal  // T
};

std::string_view CategoryToString(Category c);

/// Cache of prepared plans for one loaded engine, keyed by query shape
/// (the Table 2 number, or any caller-chosen key). A PreparedPlan is
/// immutable after lowering, so one cache entry serves every session of
/// the engine; lookups take a shared lock, the one-time lowering takes
/// the exclusive lock. Entry addresses are stable (node-based map) —
/// returned pointers stay valid for the cache's lifetime.
class PreparedQueryCache {
 public:
  explicit PreparedQueryCache(const GraphEngine* engine) : engine_(engine) {}

  /// The prepared plan for `key`, lowering `build()` on first use.
  Result<const query::PreparedPlan*> Get(
      int key, FunctionRef<query::Traversal()> build) const;

 private:
  const GraphEngine* engine_;
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<int, query::PreparedPlan> plans_;
};

/// Execution context handed to each query implementation. Reused across
/// the iterations of a run, so the parameter slots below amortize their
/// capacity (non-copyable for the same reason).
struct QueryContext {
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  GraphEngine* engine = nullptr;
  /// The calling client's read session (one per thread; see the engine.h
  /// concurrency contract). Read queries pass it to every engine call;
  /// mutating queries only need the engine (or `writer`, below).
  QuerySession* session = nullptr;
  /// When set (mixed read/write mode), mutating specs commit their
  /// WriteBatch through this single-writer WAL path instead of calling
  /// the engine's raw write methods; see QueryContext::Commit.
  GraphWriter* writer = nullptr;
  const datasets::Workload* workload = nullptr;
  CancelToken cancel;
  /// Batch iteration index; implementations vary their sampled parameters
  /// with it so a batch is 10 distinct random picks, as in the paper.
  int iteration = 0;

  /// Prepared plans shared across every client of the loaded engine
  /// (set by the Runner). Contexts built without one — tests, ad-hoc
  /// drivers — fall back to a context-local cache via prepared_cache().
  const PreparedQueryCache* prepared = nullptr;
  /// Rebindable per-iteration arguments for the prepared plans (see
  /// PlanParams in plan.h); result collection reuses the session
  /// scratch, so no output buffer lives here.
  query::PlanParams params;

  /// The effective cache: `prepared` when set, else a lazily created
  /// context-local one (still compile-once/run-many within this context).
  const PreparedQueryCache& prepared_cache();

  /// Applies a mutating spec's staged batch: through `writer` (WAL-logged,
  /// epoch-published, safe under concurrent readers) when one is
  /// installed, else directly against the engine (the single-threaded
  /// sequential path — no logging overhead in the measured Fig. 3 single
  /// numbers). Both paths treat removes of already-gone elements as
  /// no-ops. Returns the number of ops applied.
  Result<uint64_t> Commit(const WriteBatch& batch);

 private:
  std::unique_ptr<PreparedQueryCache> local_prepared_;
};

struct QueryResult {
  /// Elements produced/affected; used for sanity checks and reporting.
  uint64_t items = 0;
};

struct QuerySpec {
  std::string name;         // "Q8", "Q32(d=3)"
  int number = 0;           // Table 2 row
  int variant = 0;          // BFS depth, or 0
  std::string gremlin;      // Table 2 query text
  std::string description;  // Table 2 description
  Category category = Category::kRead;
  bool mutates = false;
  std::function<Result<QueryResult>(QueryContext&)> run;
};

/// The full catalog (Q2..Q35 plus depth variants; Q1, the bulk load, is
/// executed by the runner itself since it needs a fresh instance).
const std::vector<QuerySpec>& QueryCatalog();

/// Catalog subset by Table 2 numbers (e.g. {28,29,30,31} for Fig. 5(b)).
std::vector<const QuerySpec*> QueriesByNumber(const std::vector<int>& numbers);

}  // namespace core
}  // namespace gdbmicro

#endif  // GDBMICRO_CORE_QUERIES_H_
