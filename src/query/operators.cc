#include "src/query/operators.h"

#include "src/util/string_util.h"

namespace gdbmicro {
namespace query {

namespace {

/// Renders a Has()-style predicate for Explain.
std::string PredicateArgs(const std::string& key, const PropertyValue& value,
                          bool bound) {
  return StrFormat("%s == %s", key.c_str(),
                   bound ? "?" : value.ToString().c_str());
}

/// Renders an adjacency step's arguments for Explain.
std::string AdjacencyArgs(Direction dir, LabelMode mode,
                          const std::string& label) {
  std::string out(DirectionToString(dir));
  if (mode == LabelMode::kFixed) {
    out += ", label=";
    out += label;
  } else if (mode == LabelMode::kBound) {
    out += ", label=?";
  }
  return out;
}

/// The adjacency-visitor label argument for the three label modes.
const std::string* VisitLabel(const ExecContext& ctx, LabelMode mode,
                              const std::string& label) {
  switch (mode) {
    case LabelMode::kAny:
      return nullptr;
    case LabelMode::kFixed:
      return &label;
    case LabelMode::kBound:
      return &ctx.params->label;
  }
  return nullptr;
}

/// Approximate heap bytes of one unordered-set/-map entry (node, bucket
/// share, key), used to charge the governor for dedup-set growth.
constexpr uint64_t kHashSetEntryBytes = 32;
/// Approximate fixed overhead of one interned pool value (deque slot,
/// index entry) on top of its string payload.
constexpr uint64_t kPoolEntryBytes = 48;

/// Charges the governor for pool growth across an intern call: a repeat
/// value is free, a new one pays its payload plus entry overhead. OK, or
/// the typed kResourceExhausted once the budget trips.
Status ChargePoolGrowth(const ExecContext& ctx, size_t size_before,
                        size_t payload_bytes) {
  if (ctx.scratch.pool.size() == size_before) return Status::OK();
  GDB_CHECK_CHARGE(ctx.cancel, kPoolEntryBytes + payload_bytes);
  return Status::OK();
}

/// Interns a rendered property value into the session pool without a
/// per-row temporary: strings intern their payload directly, scalars
/// render into the scratch's reused buffer first.
uint64_t InternValue(const ExecContext& ctx, const PropertyValue& v) {
  if (v.is_string()) return ctx.scratch.pool.Intern(v.string_value());
  ctx.scratch.value_buf.clear();
  v.AppendTo(&ctx.scratch.value_buf);
  return ctx.scratch.pool.Intern(ctx.scratch.value_buf);
}

/// Payload size InternValue would intern for `v` (for the growth charge).
size_t InternPayloadBytes(const ExecContext& ctx, const PropertyValue& v) {
  if (v.is_string()) return v.string_value().size();
  return ctx.scratch.value_buf.size();
}

}  // namespace

Status Operator::Produce(const ExecContext& ctx, OpScratch& state,
                         RowSink sink) const {
  (void)ctx;
  (void)state;
  (void)sink;
  return Status::Internal(StrFormat("%s is not a source operator",
                                    std::string(name()).c_str()));
}

Result<bool> Operator::Process(const ExecContext& ctx, OpScratch& state,
                               uint64_t row, RowSink sink) const {
  (void)ctx;
  (void)state;
  (void)row;
  (void)sink;
  return Status::Internal(StrFormat("%s is a source operator",
                                    std::string(name()).c_str()));
}

// --- Sources ---------------------------------------------------------------

Status VertexScan::Produce(const ExecContext& ctx, OpScratch& state,
                           RowSink sink) const {
  (void)state;
  return ctx.engine.ScanVertices(ctx.session, ctx.cancel,
                                 [&](VertexId id) { return sink(id); });
}

Status EdgeScan::Produce(const ExecContext& ctx, OpScratch& state,
                         RowSink sink) const {
  (void)state;
  return ctx.engine.ScanEdges(ctx.session, ctx.cancel,
                              [&](const EdgeEnds& e) { return sink(e.id); });
}

std::string VertexLookup::args() const {
  if (bound_) return "id=?";
  return StrFormat("id=%llu", static_cast<unsigned long long>(id_));
}

Status VertexLookup::Produce(const ExecContext& ctx, OpScratch& state,
                             RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  VertexId id = bound_ ? ctx.params->id : id_;
  auto rec = ctx.engine.GetVertex(ctx.session, id);
  if (!rec.ok()) {
    // g.V(id) on a missing vertex is an empty traverser set, not a query
    // error (Gremlin semantics).
    if (rec.status().IsNotFound()) return Status::OK();
    return rec.status();
  }
  sink(rec->id);
  return Status::OK();
}

std::string EdgeLookup::args() const {
  if (bound_) return "id=?";
  return StrFormat("id=%llu", static_cast<unsigned long long>(id_));
}

Status EdgeLookup::Produce(const ExecContext& ctx, OpScratch& state,
                           RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  EdgeId id = bound_ ? ctx.params->id : id_;
  auto rec = ctx.engine.GetEdge(ctx.session, id);
  if (!rec.ok()) {
    if (rec.status().IsNotFound()) return Status::OK();
    return rec.status();
  }
  sink(rec->id);
  return Status::OK();
}

std::string PropertyIndexScan::args() const {
  return PredicateArgs(key_, value_, bound_);
}

Status PropertyIndexScan::Produce(const ExecContext& ctx, OpScratch& state,
                                  RowSink sink) const {
  (void)state;
  const PropertyValue& value = bound_ ? ctx.params->value : value_;
  GDB_ASSIGN_OR_RETURN(
      std::vector<VertexId> ids,
      ctx.engine.FindVerticesByProperty(ctx.session, key_, value, ctx.cancel));
  for (VertexId v : ids) {
    if (!sink(v)) break;
  }
  return Status::OK();
}

std::string EdgeLabelScan::args() const { return "label=" + label_; }

Status EdgeLabelScan::Produce(const ExecContext& ctx, OpScratch& state,
                              RowSink sink) const {
  (void)state;
  GDB_ASSIGN_OR_RETURN(
      std::vector<EdgeId> ids,
      ctx.engine.FindEdgesByLabel(ctx.session, label_, ctx.cancel));
  for (EdgeId e : ids) {
    if (!sink(e)) break;
  }
  return Status::OK();
}

Status DistinctEdgeTargetScan::Produce(const ExecContext& ctx,
                                       OpScratch& state,
                                       RowSink sink) const {
  OpScratch& s = Fresh(ctx, state);
  // Dedup-set growth is governor-accounted; a budget trip can't travel
  // through the bool-valued visitor, so it parks and stops the walk.
  Status charge_error = Status::OK();
  GDB_RETURN_IF_ERROR(ctx.engine.ScanEdges(
      ctx.session, ctx.cancel, [&](const EdgeEnds& e) {
        if (!s.seen.insert(e.dst)) return true;
        if (!ctx.cancel.Charge(kHashSetEntryBytes)) {
          charge_error = ctx.cancel.ToStatus();
          return false;
        }
        return sink(e.dst);
      }));
  return charge_error;
}

std::string DistinctNeighborScan::args() const {
  return AdjacencyArgs(dir_,
                       label_.has_value() ? LabelMode::kFixed : LabelMode::kAny,
                       label_.has_value() ? *label_ : std::string());
}

Status DistinctNeighborScan::Produce(const ExecContext& ctx, OpScratch& state,
                                     RowSink sink) const {
  OpScratch& s = Fresh(ctx, state);
  Status charge_error = Status::OK();
  auto admit = [&](VertexId v) {
    if (!s.seen.insert(v)) return 0;  // duplicate: skip, keep going
    if (!ctx.cancel.Charge(kHashSetEntryBytes)) {
      charge_error = ctx.cancel.ToStatus();
      return -1;  // budget tripped: stop the walk
    }
    return 1;  // fresh: emit
  };
  GDB_RETURN_IF_ERROR(ctx.engine.ScanEdges(
      ctx.session, ctx.cancel, [&](const EdgeEnds& e) {
        if (label_.has_value() && e.label != *label_) return true;
        // out() emits destinations, in() emits sources, both() emits both
        // endpoints — each vertex at most once.
        if (dir_ != Direction::kIn) {
          int a = admit(e.dst);
          if (a < 0) return false;
          if (a > 0 && !sink(e.dst)) return false;
        }
        if (dir_ != Direction::kOut) {
          int a = admit(e.src);
          if (a < 0) return false;
          if (a > 0 && !sink(e.src)) return false;
        }
        return true;
      }));
  return charge_error;
}

// --- Pipeline operators ----------------------------------------------------

std::string LabelFilter::args() const { return "label=" + label_; }

Result<bool> LabelFilter::Process(const ExecContext& ctx, OpScratch& state,
                                  uint64_t row, RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  if (input_kind() == RowKind::kVertex) {
    GDB_ASSIGN_OR_RETURN(VertexRecord rec, ctx.engine.GetVertex(ctx.session, row));
    if (rec.label == label_) return sink(row);
  } else if (input_kind() == RowKind::kEdge) {
    GDB_ASSIGN_OR_RETURN(EdgeEnds ends, ctx.engine.GetEdgeEnds(ctx.session, row));
    if (ends.label == label_) return sink(row);
  }
  return true;
}

std::string PropertyFilter::args() const {
  return PredicateArgs(key_, value_, bound_);
}

Result<bool> PropertyFilter::Process(const ExecContext& ctx, OpScratch& state,
                                     uint64_t row, RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  const PropertyValue& value = bound_ ? ctx.params->value : value_;
  PropertyMap props;
  if (input_kind() == RowKind::kVertex) {
    GDB_ASSIGN_OR_RETURN(VertexRecord rec, ctx.engine.GetVertex(ctx.session, row));
    props = std::move(rec.properties);
  } else if (input_kind() == RowKind::kEdge) {
    GDB_ASSIGN_OR_RETURN(EdgeRecord rec, ctx.engine.GetEdge(ctx.session, row));
    props = std::move(rec.properties);
  } else {
    return true;  // value rows carry no properties
  }
  const PropertyValue* v = FindProperty(props, key_);
  if (v != nullptr && *v == value) return sink(row);
  return true;
}

std::string Expand::args() const { return AdjacencyArgs(dir_, mode_, label_); }

Result<bool> Expand::Process(const ExecContext& ctx, OpScratch& state,
                             uint64_t row, RowSink sink) const {
  (void)state;
  if (input_kind() != RowKind::kVertex) return true;
  bool keep_going = true;
  GDB_RETURN_IF_ERROR(ctx.engine.ForEachNeighbor(
      ctx.session, row, dir_, VisitLabel(ctx, mode_, label_), ctx.cancel,
      [&](VertexId v) {
        keep_going = sink(v);
        return keep_going;
      }));
  return keep_going;
}

std::string ExpandE::args() const { return AdjacencyArgs(dir_, mode_, label_); }

Result<bool> ExpandE::Process(const ExecContext& ctx, OpScratch& state,
                              uint64_t row, RowSink sink) const {
  (void)state;
  if (input_kind() != RowKind::kVertex) return true;
  bool keep_going = true;
  GDB_RETURN_IF_ERROR(ctx.engine.ForEachEdgeOf(
      ctx.session, row, dir_, VisitLabel(ctx, mode_, label_), ctx.cancel,
      [&](EdgeId e) {
        keep_going = sink(e);
        return keep_going;
      }));
  return keep_going;
}

Result<bool> ExpandELabel::Process(const ExecContext& ctx, OpScratch& state,
                                   uint64_t row, RowSink sink) const {
  (void)state;
  if (input_kind() != RowKind::kVertex) return true;
  bool keep_going = true;
  // Pool growth is governor-accounted; a budget trip parks here and stops
  // the walk, like the dedup charges of the scan sources.
  Status charge_error = Status::OK();
  GDB_RETURN_IF_ERROR(ctx.engine.ForEachEdgeLabel(
      ctx.session, row, dir_, VisitLabel(ctx, mode_, label_), ctx.cancel,
      [&](std::string_view label) {
        size_t before = ctx.scratch.pool.size();
        uint64_t id = ctx.scratch.pool.Intern(label);
        charge_error = ChargePoolGrowth(ctx, before, label.size());
        if (!charge_error.ok()) return false;
        keep_going = sink(id);
        return keep_going;
      }));
  GDB_RETURN_IF_ERROR(charge_error);
  return keep_going;
}

Result<bool> EndpointMap::Process(const ExecContext& ctx, OpScratch& state,
                                  uint64_t row, RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  if (input_kind() != RowKind::kEdge) return true;
  GDB_ASSIGN_OR_RETURN(EdgeEnds ends, ctx.engine.GetEdgeEnds(ctx.session, row));
  return sink(out_ ? ends.src : ends.dst);
}

Result<bool> LabelMap::Process(const ExecContext& ctx, OpScratch& state,
                               uint64_t row, RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  if (input_kind() == RowKind::kEdge) {
    GDB_ASSIGN_OR_RETURN(EdgeEnds ends, ctx.engine.GetEdgeEnds(ctx.session, row));
    size_t before = ctx.scratch.pool.size();
    uint64_t id = ctx.scratch.pool.Intern(ends.label);
    GDB_RETURN_IF_ERROR(ChargePoolGrowth(ctx, before, ends.label.size()));
    return sink(id);
  }
  if (input_kind() == RowKind::kVertex) {
    GDB_ASSIGN_OR_RETURN(VertexRecord rec, ctx.engine.GetVertex(ctx.session, row));
    size_t before = ctx.scratch.pool.size();
    uint64_t id = ctx.scratch.pool.Intern(rec.label);
    GDB_RETURN_IF_ERROR(ChargePoolGrowth(ctx, before, rec.label.size()));
    return sink(id);
  }
  return true;
}

Result<bool> ValuesMap::Process(const ExecContext& ctx, OpScratch& state,
                                uint64_t row, RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  PropertyMap props;
  if (input_kind() == RowKind::kVertex) {
    GDB_ASSIGN_OR_RETURN(VertexRecord rec, ctx.engine.GetVertex(ctx.session, row));
    props = std::move(rec.properties);
  } else if (input_kind() == RowKind::kEdge) {
    GDB_ASSIGN_OR_RETURN(EdgeRecord rec, ctx.engine.GetEdge(ctx.session, row));
    props = std::move(rec.properties);
  } else {
    return true;
  }
  if (const PropertyValue* v = FindProperty(props, key_)) {
    size_t before = ctx.scratch.pool.size();
    uint64_t id = InternValue(ctx, *v);
    GDB_RETURN_IF_ERROR(
        ChargePoolGrowth(ctx, before, InternPayloadBytes(ctx, *v)));
    return sink(id);
  }
  return true;
}

Result<bool> Dedup::Process(const ExecContext& ctx, OpScratch& state,
                            uint64_t row, RowSink sink) const {
  GDB_CHECK_CANCEL(ctx.cancel);
  OpScratch& s = Fresh(ctx, state);
  if (s.seen.insert(row)) {
    GDB_CHECK_CHARGE(ctx.cancel, kHashSetEntryBytes);
    return sink(row);
  }
  return true;
}

std::string Limit::args() const {
  return StrFormat("%llu", static_cast<unsigned long long>(n_));
}

Result<bool> Limit::Process(const ExecContext& ctx, OpScratch& state,
                            uint64_t row, RowSink sink) const {
  OpScratch& s = Fresh(ctx, state);
  if (s.counter >= n_) return false;
  ++s.counter;
  bool keep_going = sink(row);
  return keep_going && s.counter < n_;
}

std::string DegreeFilter::args() const {
  return StrFormat("%s >= %llu",
                   std::string(DirectionToString(dir_)).c_str(),
                   static_cast<unsigned long long>(k_));
}

Result<bool> DegreeFilter::Process(const ExecContext& ctx, OpScratch& state,
                                   uint64_t row, RowSink sink) const {
  (void)state;
  GDB_CHECK_CANCEL(ctx.cancel);
  if (input_kind() != RowKind::kVertex) return true;
  // Gremlin shape: the inner it.xE.count() materializes the incident edge
  // list for every candidate vertex (CountEdgesOf is exactly that
  // primitive; see engine.h).
  GDB_ASSIGN_OR_RETURN(
      uint64_t degree,
      ctx.engine.CountEdgesOf(ctx.session, row, dir_, ctx.cancel));
  if (degree >= k_) return sink(row);
  return true;
}

Result<bool> CountSink::Process(const ExecContext& ctx, OpScratch& state,
                                uint64_t row, RowSink sink) const {
  (void)row;
  (void)sink;
  ++Fresh(ctx, state).counter;
  return true;
}

}  // namespace query
}  // namespace gdbmicro
