// Physical operators for the traversal machine (see plan.h for the
// execution-policy contract).
//
// Every operator is a node in a linear chain and implements a streaming
// interface: sources Produce() rows into a sink; pipeline operators
// Process() one input row into zero or more output rows through a sink.
// The sink returning false means the consumer wants no more rows — the
// operator must stop emitting and report false upstream, which is how a
// Limit (or any terminal stop) reaches the source scan without any
// executor-level machinery.
//
// Operators are IMMUTABLE after lowering: Produce/Process are const and
// per-run state (dedup sets, limit counters, count accumulators) lives
// in the OpScratch slot the executor hands in, which belongs to the
// calling session's PlanScratch. A stateful operator lazily resets its
// slot against the scratch's run epoch (OpScratch in plan.h), so one
// lowered chain serves many sessions and repeated runs reset nothing
// that was never touched.
//
// Rows are flat uint64_t (plan.h): ids for vertex/edge positions, value
// pool indexes for label/property-value positions. Each operator's input
// kind is fixed at lowering (set_input_kind), so no per-row tag is
// carried. RowSink is a FunctionRef (src/util/function_ref.h): composing
// the chain and pushing rows never allocates.
//
// Both executors drive these same implementations: the step-wise
// executor feeds a materialized frontier row by row; the streaming
// executor composes the Process calls into one pass. An operator must
// therefore not assume anything about its caller beyond the sink
// contract.

#ifndef GDBMICRO_QUERY_OPERATORS_H_
#define GDBMICRO_QUERY_OPERATORS_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/query/plan.h"
#include "src/util/function_ref.h"

namespace gdbmicro {
namespace query {

/// Consumes one row; returns false to stop the producer (early
/// termination, not an error). Sinks are only invoked while the call
/// that received them runs (see src/util/function_ref.h).
using RowSink = FunctionRef<bool(uint64_t)>;

/// Everything a run threads through the chain: the engine + session pair,
/// cancellation, the session's scratch (value pool, run epoch), and the
/// bound parameters (null when the plan has no bound steps).
struct ExecContext {
  const GraphEngine& engine;
  QuerySession& session;
  const CancelToken& cancel;
  PlanScratch& scratch;
  const PlanParams* params;
};

/// Lazily resets a stateful operator's slot at its first touch in the
/// current run (see OpScratch in plan.h).
inline OpScratch& Fresh(const ExecContext& ctx, OpScratch& state) {
  if (state.epoch != ctx.scratch.run_epoch) {
    state.counter = 0;
    state.seen.clear();  // O(1), keeps the table: no realloc on refill
    state.epoch = ctx.scratch.run_epoch;
  }
  return state;
}

class Operator {
 public:
  virtual ~Operator() = default;

  /// Operator name as printed by Plan::Explain.
  virtual std::string_view name() const = 0;
  /// Argument summary for Explain ("" = none).
  virtual std::string args() const { return std::string(); }

  virtual bool is_source() const { return false; }

  /// Kind of the rows this operator emits given input rows of `in`;
  /// lowering folds this over the chain (sources ignore `in`).
  virtual RowKind OutputKind(RowKind in) const { return in; }

  /// Upper bound on emitted rows given a bound on input rows, when one
  /// is statically known (plan.h row_bound). Default: filters and maps
  /// emit at most one row per input; sources and expansions override.
  virtual std::optional<uint64_t> RowBound(std::optional<uint64_t> in) const {
    return in;
  }

  /// The input row kind, fixed by Plan::Lower.
  RowKind input_kind() const { return input_kind_; }
  void set_input_kind(RowKind k) { input_kind_ = k; }

  /// Sources only: drive the engine, pushing every row into `sink` until
  /// exhausted or the sink returns false. `state` is this operator's
  /// per-run slot in the calling session's scratch.
  virtual Status Produce(const ExecContext& ctx, OpScratch& state,
                         RowSink sink) const;

  /// Pipeline operators only: transform one input row, pushing outputs
  /// into `sink`. Returns false when the operator wants no further input
  /// (its sink stopped, or its own bound — e.g. Limit — was reached).
  virtual Result<bool> Process(const ExecContext& ctx, OpScratch& state,
                               uint64_t row, RowSink sink) const;

 private:
  RowKind input_kind_ = RowKind::kVertex;
};

// --- Sources ---------------------------------------------------------------

/// g.V() — full vertex scan.
class VertexScan : public Operator {
 public:
  std::string_view name() const override { return "VertexScan"; }
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;
};

/// g.E() — full edge scan.
class EdgeScan : public Operator {
 public:
  std::string_view name() const override { return "EdgeScan"; }
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kEdge; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;
};

/// g.V(id). A missing vertex yields an empty traverser set (Gremlin
/// semantics), not an error; non-NotFound failures still propagate.
/// `bound` reads the id from PlanParams at Run time (g.V(?)).
class VertexLookup : public Operator {
 public:
  explicit VertexLookup(VertexId id) : id_(id) {}
  explicit VertexLookup(Bound) : bound_(true) {}
  std::string_view name() const override { return "VertexLookup"; }
  std::string args() const override;
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return 1;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;

 private:
  VertexId id_ = kInvalidId;
  bool bound_ = false;
};

/// g.E(id), with the same missing-element and bound-id semantics as
/// VertexLookup.
class EdgeLookup : public Operator {
 public:
  explicit EdgeLookup(EdgeId id) : id_(id) {}
  explicit EdgeLookup(Bound) : bound_(true) {}
  std::string_view name() const override { return "EdgeLookup"; }
  std::string args() const override;
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kEdge; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return 1;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;

 private:
  EdgeId id_ = kInvalidId;
  bool bound_ = false;
};

/// Conflated rewrite of V().Has(k, v): the engine's native property
/// search (index-backed where one exists) replaces scan + per-vertex
/// record materialization.
class PropertyIndexScan : public Operator {
 public:
  PropertyIndexScan(std::string key, PropertyValue value)
      : key_(std::move(key)), value_(std::move(value)) {}
  PropertyIndexScan(std::string key, Bound)
      : key_(std::move(key)), bound_(true) {}
  std::string_view name() const override { return "PropertyIndexScan"; }
  std::string args() const override;
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;

 private:
  std::string key_;
  PropertyValue value_;
  bool bound_ = false;
};

/// Conflated rewrite of E().HasLabel(l): the engine's native
/// edges-by-label search (paper Q.13).
class EdgeLabelScan : public Operator {
 public:
  explicit EdgeLabelScan(std::string label) : label_(std::move(label)) {}
  std::string_view name() const override { return "EdgeLabelScan"; }
  std::string args() const override;
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kEdge; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;

 private:
  std::string label_;
};

/// Conflated rewrite of V().Out().Dedup() (paper Q.31): one pass over
/// ScanEdges with a streaming hash-dedup of destination vertices — the
/// SELECT DISTINCT dst the Sqlg adapter generates. Emission order is the
/// engine's edge-scan order.
class DistinctEdgeTargetScan : public Operator {
 public:
  std::string_view name() const override { return "DistinctEdgeTargetScan"; }
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;
};

/// Cost-based generalization of DistinctEdgeTargetScan to every
/// direction and an optional label: V().out/in/both([l]).dedup() as one
/// ScanEdges pass with a streaming hash-dedup of the matching endpoints.
/// The optimizer chooses it when one edge scan is estimated cheaper than
/// a per-vertex expansion (the expansion-direction choice for both()).
class DistinctNeighborScan : public Operator {
 public:
  DistinctNeighborScan(Direction dir, std::optional<std::string> label)
      : dir_(dir), label_(std::move(label)) {}
  std::string_view name() const override { return "DistinctNeighborScan"; }
  std::string args() const override;
  bool is_source() const override { return true; }
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Status Produce(const ExecContext& ctx, OpScratch& state,
                 RowSink sink) const override;

 private:
  Direction dir_;
  std::optional<std::string> label_;
};

// --- Pipeline operators ----------------------------------------------------

/// HasLabel(l) on vertex or edge traversers; value traversers drop.
class LabelFilter : public Operator {
 public:
  explicit LabelFilter(std::string label) : label_(std::move(label)) {}
  std::string_view name() const override { return "LabelFilter"; }
  std::string args() const override;
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  std::string label_;
};

/// Has(k, v) property-equality filter (paper Q.11/Q.12 shape).
class PropertyFilter : public Operator {
 public:
  PropertyFilter(std::string key, PropertyValue value)
      : key_(std::move(key)), value_(std::move(value)) {}
  PropertyFilter(std::string key, Bound)
      : key_(std::move(key)), bound_(true) {}
  std::string_view name() const override { return "PropertyFilter"; }
  std::string args() const override;
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  std::string key_;
  PropertyValue value_;
  bool bound_ = false;
};

/// How an adjacency step restricts the edge label: any label, a label
/// fixed at lowering, or a label bound through PlanParams at Run time.
enum class LabelMode : uint8_t { kAny, kFixed, kBound };

/// out()/in()/both(): streams each neighborhood through the zero-alloc
/// ForEachNeighbor visitor straight into the sink.
class Expand : public Operator {
 public:
  Expand(Direction dir, std::optional<std::string> label)
      : dir_(dir),
        mode_(label.has_value() ? LabelMode::kFixed : LabelMode::kAny),
        label_(label.has_value() ? std::move(*label) : std::string()) {}
  Expand(Direction dir, Bound) : dir_(dir), mode_(LabelMode::kBound) {}
  std::string_view name() const override { return "Expand"; }
  std::string args() const override;
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  Direction dir_;
  LabelMode mode_;
  std::string label_;
};

/// outE()/inE()/bothE() through ForEachEdgeOf.
class ExpandE : public Operator {
 public:
  ExpandE(Direction dir, std::optional<std::string> label)
      : dir_(dir),
        mode_(label.has_value() ? LabelMode::kFixed : LabelMode::kAny),
        label_(label.has_value() ? std::move(*label) : std::string()) {}
  ExpandE(Direction dir, Bound) : dir_(dir), mode_(LabelMode::kBound) {}
  std::string_view name() const override { return "ExpandE"; }
  std::string args() const override;
  RowKind OutputKind(RowKind) const override { return RowKind::kEdge; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return std::nullopt;
  }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 protected:
  Direction dir_;
  LabelMode mode_;
  std::string label_;
};

/// Conflated fusion of outE()/inE()/bothE() followed by label(): one
/// ForEachEdgeLabel walk interns each incident edge's label, in
/// ExpandE's row order, instead of emitting edge ids that LabelMap then
/// fetches again one by one (paper Q.25-Q.27).
class ExpandELabel : public ExpandE {
 public:
  using ExpandE::ExpandE;
  std::string_view name() const override { return "ExpandELabel"; }
  RowKind OutputKind(RowKind) const override { return RowKind::kValue; }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;
};

/// outV()/inV(): maps edge traversers to an endpoint.
class EndpointMap : public Operator {
 public:
  explicit EndpointMap(bool out) : out_(out) {}
  std::string_view name() const override { return "EndpointMap"; }
  std::string args() const override { return out_ ? "out" : "in"; }
  RowKind OutputKind(RowKind) const override { return RowKind::kVertex; }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  bool out_;
};

/// label(): maps elements to their (interned) label string.
class LabelMap : public Operator {
 public:
  std::string_view name() const override { return "LabelMap"; }
  RowKind OutputKind(RowKind) const override { return RowKind::kValue; }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;
};

/// values(k): maps elements to an (interned) property value; missing
/// property drops the traverser (Gremlin semantics).
class ValuesMap : public Operator {
 public:
  explicit ValuesMap(std::string key) : key_(std::move(key)) {}
  std::string_view name() const override { return "ValuesMap"; }
  std::string args() const override { return key_; }
  RowKind OutputKind(RowKind) const override { return RowKind::kValue; }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  std::string key_;
};

/// dedup(): streaming hash-dedup over the flat rows. The row kind is
/// uniform at this position, and value rows are interned pool indexes,
/// so a single integer set covers ids and values alike.
class Dedup : public Operator {
 public:
  std::string_view name() const override { return "Dedup"; }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;
};

/// limit(n): forwards the first n rows, then stops its producer.
class Limit : public Operator {
 public:
  explicit Limit(uint64_t n) : n_(n) {}
  std::string_view name() const override { return "Limit"; }
  std::string args() const override;
  std::optional<uint64_t> RowBound(std::optional<uint64_t> in) const override {
    return in.has_value() ? std::min(*in, n_) : n_;
  }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  uint64_t n_;
};

/// The g.V.filter{it.xE.count() >= k} shape (Q.28-Q.30): the inner count
/// is CountEdgesOf, which engines that materialize intermediate edge
/// lists (sparksee) charge to their query arena under either policy.
class DegreeFilter : public Operator {
 public:
  DegreeFilter(Direction dir, uint64_t k) : dir_(dir), k_(k) {}
  std::string_view name() const override { return "DegreeFilter"; }
  std::string args() const override;
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;

 private:
  Direction dir_;
  uint64_t k_;
};

/// Terminal count(): consumes rows without forwarding or materializing.
/// The accumulated count lives in the operator's scratch slot; Plan::Run
/// reads it back (guarding on the slot epoch — an untouched slot means a
/// zero-row run).
class CountSink : public Operator {
 public:
  std::string_view name() const override { return "CountSink"; }
  std::optional<uint64_t> RowBound(std::optional<uint64_t>) const override {
    return 0;
  }
  Result<bool> Process(const ExecContext& ctx, OpScratch& state, uint64_t row,
                       RowSink sink) const override;
};

}  // namespace query
}  // namespace gdbmicro

#endif  // GDBMICRO_QUERY_OPERATORS_H_
