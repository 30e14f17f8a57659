// The traced run's instruments, all from outside the program.
//
// Each traced op gets an id and a root span around QuerySpec::run, plus
// spans for its governor and (per-op or probe) session creation. After
// the op returns, its work is re-executed with the same parameters at
// each lower layer's public entry point (PreparedPlan::RunCount, the
// engine primitives, BreadthFirst/ShortestPath); each re-execution is a
// child span of the op, and a layer's self time is the difference
// between its span and the spans of the layer below.
//
// Spans of the first ops per client and engine are kept in memory and
// written out when the run ends; every traced op feeds the per-layer
// sums the metrics are computed from.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <string>
#include <vector>

#include "perfbench/src/perfbench.h"

namespace perfbench {

/// Counts that must repeat exactly between two passes over the same ops.
struct Counters {
  uint64_t ops = 0;
  uint64_t allocs = 0;   // heap allocations inside QuerySpec::run
  uint64_t rows = 0;     // PlanStats rows over plan ops
  uint64_t results = 0;  // result counts of those plan ops
  uint64_t path_ops = 0;
  uint64_t index_answers = 0;  // path ops answered by the path index
  uint64_t sp_ops = 0;
  uint64_t sp_expanded = 0;

  bool operator==(const Counters&) const = default;
};

class Tracer {
 public:
  /// `slots` = client threads that may call Exec concurrently (each with
  /// its own slot index).
  Tracer(const Bench& b, int slots);

  /// The traced form of ExecOp (see perfbench.h).
  Status Exec(Variant& v, core::QueryContext& ctx,
              gdbmicro::QuerySession* session, const Op& op, int slot,
              uint64_t* items, int64_t* ns);

  /// Per-engine figures over every traced op, merged across slots. Self
  /// times are kept per op (their medians resist the cache-warmth bias
  /// of a re-execution); per-element costs are sums.
  struct Layers {
    uint64_t ops = 0;
    std::vector<int32_t> governor_ns;
    std::vector<int32_t> op_self_ns;    // warm QuerySpec::run minus RunCount
    std::vector<int32_t> plan_self_ns;  // RunCount minus engine primitives
    std::vector<int32_t> lookup_ns;     // GetVertex / GetEdge
    double adjacency_ns = 0;  // unfiltered walks only
    uint64_t adjacency_edges = 0;
    double bfs_ns = 0;
    uint64_t bfs_expanded = 0;
    double sp_ns = 0;
    uint64_t sp_expanded = 0;
    std::vector<int32_t> session_ns;  // CreateSession spans
    std::vector<int32_t> commit_ns;   // write-op spans

    void Merge(const Layers& o);
  };
  Layers Total(size_t variant) const;

  /// Writes the kept spans as JSON lines; returns the number written.
  Result<size_t> WriteSpans(const std::string& path) const;

 private:
  struct Span {
    uint64_t op;
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    uint64_t count;  // elements the call visited, where meaningful
  };
  struct Slot {
    Layers layers;
    std::vector<Span> spans;
    std::vector<gdbmicro::EdgeId> edge_buf;
  };

  void ReExecute(Variant& v, core::QueryContext& ctx,
                 gdbmicro::QuerySession& session, const Op& op,
                 uint64_t op_id, Slot& s);

  const Bench& b_;
  std::vector<Slot> slots_;  // [slot * variants + variant]
};

/// One pass over `ops` on variant `v` counting allocations, plan rows and
/// path-search work. Single-client workloads run the pass on one fresh
/// session; the concurrent workload on a session per op, as its readers
/// do.
Result<Counters> CountPass(Variant& v, const std::vector<Op>& ops,
                           bool session_per_op);

/// Median ns per element of a full ScanVertices + ScanEdges pass.
Result<double> ScanNsPerElement(const Variant& v, int passes);

/// Logs every batch the variant's GraphWriter committed on a standalone
/// Wal and returns the mean LogBatch time in microseconds.
Result<double> StandaloneWalLogUs(Variant& v);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
