#include "src/storage/wal.h"

#include <cstring>

#include "src/util/varint.h"

namespace gdbmicro {

namespace {

// Value payload tags inside mutation records.
constexpr uint8_t kValueNull = 0;
constexpr uint8_t kValueBool = 1;
constexpr uint8_t kValueInt = 2;
constexpr uint8_t kValueDouble = 3;
constexpr uint8_t kValueInlineString = 4;
constexpr uint8_t kValueSeparatedString = 5;

void PutFixed32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

Result<uint32_t> GetFixed32(std::string_view in, size_t* pos) {
  if (in.size() - *pos < 4 || *pos > in.size()) {
    return Status::Corruption("truncated fixed32");
  }
  uint32_t v =
      static_cast<uint32_t>(static_cast<unsigned char>(in[*pos])) |
      static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + 1])) << 8 |
      static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + 2])) << 16 |
      static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + 3])) << 24;
  *pos += 4;
  return v;
}

void PutString(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string_view> GetString(std::string_view in, size_t* pos) {
  GDB_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(in, pos));
  if (len > in.size() - *pos || *pos > in.size()) {
    return Status::Corruption("truncated string");
  }
  std::string_view s = in.substr(*pos, len);
  *pos += len;
  return s;
}

void PutRef(std::string* out, uint64_t value, bool pending) {
  out->push_back(pending ? '\1' : '\0');
  PutVarint64(out, value);
}

template <typename Ref>
Result<Ref> GetRef(std::string_view in, size_t* pos) {
  if (*pos >= in.size()) return Status::Corruption("truncated ref");
  uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
  if (tag > 1) return Status::Corruption("bad ref tag");
  GDB_ASSIGN_OR_RETURN(uint64_t value, GetVarint64(in, pos));
  Ref r;
  r.value = value;
  r.pending = tag == 1;
  return r;
}

Result<PropertyValue> DecodeValue(std::string_view in, size_t* pos,
                                  const Journal& values) {
  // Values are built in place inside the result (see
  // PropertyValue::DecodeFrom).
  using Decoded = Result<PropertyValue>;
  if (*pos >= in.size()) return Status::Corruption("truncated value");
  uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
  switch (tag) {
    case kValueNull:
      return Decoded(std::in_place);
    case kValueBool: {
      if (*pos >= in.size()) return Status::Corruption("truncated bool");
      return Decoded(std::in_place, in[(*pos)++] != '\0');
    }
    case kValueInt: {
      GDB_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(in, pos));
      return Decoded(std::in_place, ZigZagDecode(raw));
    }
    case kValueDouble: {
      if (in.size() - *pos < 8 || *pos > in.size()) {
        return Status::Corruption("truncated double");
      }
      uint64_t bits = 0;
      for (int i = 7; i >= 0; --i) {
        bits = (bits << 8) |
               static_cast<unsigned char>(in[*pos + static_cast<size_t>(i)]);
      }
      *pos += 8;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Decoded(std::in_place, d);
    }
    case kValueInlineString: {
      GDB_ASSIGN_OR_RETURN(std::string_view s, GetString(in, pos));
      return Decoded(std::in_place, std::string(s));
    }
    case kValueSeparatedString: {
      GDB_ASSIGN_OR_RETURN(uint64_t offset, GetVarint64(in, pos));
      GDB_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(in, pos));
      GDB_ASSIGN_OR_RETURN(uint32_t crc, GetFixed32(in, pos));
      auto bytes = values.Read(offset, len);
      if (!bytes.ok()) {
        return Status::Corruption("separated value reference out of range");
      }
      if (Crc32c(*bytes) != crc) {
        return Status::Corruption("separated value checksum mismatch");
      }
      return Decoded(std::in_place, std::string(*bytes));
    }
    default:
      return Status::Corruption("unknown value tag");
  }
}

Result<PropertyMap> DecodeProps(std::string_view in, size_t* pos,
                                const Journal& values) {
  GDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(in, pos));
  if (count > in.size() - *pos) {  // each entry takes >= 1 byte
    return Status::Corruption("property count exceeds payload");
  }
  PropertyMap props;
  props.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, pos));
    GDB_ASSIGN_OR_RETURN(PropertyValue value, DecodeValue(in, pos, values));
    props.emplace_back(std::string(name), std::move(value));
  }
  return props;
}

Result<WriteOp> DecodeOp(std::string_view in, const Journal& values) {
  size_t pos = 0;
  if (in.empty()) return Status::Corruption("empty mutation record");
  uint8_t raw_kind = static_cast<uint8_t>(in[pos++]);
  if (raw_kind < static_cast<uint8_t>(WriteOp::Kind::kAddVertex) ||
      raw_kind > static_cast<uint8_t>(WriteOp::Kind::kRemoveEdgeProperty)) {
    return Status::Corruption("unknown mutation kind");
  }
  WriteOp op;
  op.kind = static_cast<WriteOp::Kind>(raw_kind);
  switch (op.kind) {
    case WriteOp::Kind::kAddVertex: {
      GDB_ASSIGN_OR_RETURN(std::string_view label, GetString(in, &pos));
      op.name.assign(label);
      GDB_ASSIGN_OR_RETURN(op.props, DecodeProps(in, &pos, values));
      break;
    }
    case WriteOp::Kind::kAddEdge: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(op.dst, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view label, GetString(in, &pos));
      op.name.assign(label);
      GDB_ASSIGN_OR_RETURN(op.props, DecodeProps(in, &pos, values));
      break;
    }
    case WriteOp::Kind::kSetVertexProperty: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      GDB_ASSIGN_OR_RETURN(op.value, DecodeValue(in, &pos, values));
      break;
    }
    case WriteOp::Kind::kSetEdgeProperty: {
      GDB_ASSIGN_OR_RETURN(op.edge, GetRef<EdgeRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      GDB_ASSIGN_OR_RETURN(op.value, DecodeValue(in, &pos, values));
      break;
    }
    case WriteOp::Kind::kRemoveVertex: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      break;
    }
    case WriteOp::Kind::kRemoveEdge: {
      GDB_ASSIGN_OR_RETURN(op.edge, GetRef<EdgeRef>(in, &pos));
      break;
    }
    case WriteOp::Kind::kRemoveVertexProperty: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      break;
    }
    case WriteOp::Kind::kRemoveEdgeProperty: {
      GDB_ASSIGN_OR_RETURN(op.edge, GetRef<EdgeRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      break;
    }
  }
  if (pos != in.size()) {
    return Status::Corruption("trailing bytes in mutation record");
  }
  return op;
}

}  // namespace

std::string_view WriteOpKindToString(WriteOp::Kind k) {
  switch (k) {
    case WriteOp::Kind::kAddVertex:
      return "add-vertex";
    case WriteOp::Kind::kAddEdge:
      return "add-edge";
    case WriteOp::Kind::kSetVertexProperty:
      return "set-vertex-property";
    case WriteOp::Kind::kSetEdgeProperty:
      return "set-edge-property";
    case WriteOp::Kind::kRemoveVertex:
      return "remove-vertex";
    case WriteOp::Kind::kRemoveEdge:
      return "remove-edge";
    case WriteOp::Kind::kRemoveVertexProperty:
      return "remove-vertex-property";
    case WriteOp::Kind::kRemoveEdgeProperty:
      return "remove-edge-property";
  }
  return "?";
}

// --- WriteBatch -------------------------------------------------------------

PendingVertex WriteBatch::AddVertex(std::string_view label,
                                    PropertyMap props) {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddVertex;
  op.name.assign(label);
  op.props = std::move(props);
  ops_.push_back(std::move(op));
  return PendingVertex{pending_vertices_++};
}

PendingEdge WriteBatch::AddEdge(VertexRef src, VertexRef dst,
                                std::string_view label, PropertyMap props) {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddEdge;
  op.src = src;
  op.dst = dst;
  op.name.assign(label);
  op.props = std::move(props);
  ops_.push_back(std::move(op));
  return PendingEdge{pending_edges_++};
}

void WriteBatch::SetVertexProperty(VertexRef v, std::string_view name,
                                   PropertyValue value) {
  WriteOp op;
  op.kind = WriteOp::Kind::kSetVertexProperty;
  op.src = v;
  op.name.assign(name);
  op.value = std::move(value);
  ops_.push_back(std::move(op));
}

void WriteBatch::SetEdgeProperty(EdgeRef e, std::string_view name,
                                 PropertyValue value) {
  WriteOp op;
  op.kind = WriteOp::Kind::kSetEdgeProperty;
  op.edge = e;
  op.name.assign(name);
  op.value = std::move(value);
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveVertex(VertexRef v) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveVertex;
  op.src = v;
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveEdge(EdgeRef e) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveEdge;
  op.edge = e;
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveVertexProperty(VertexRef v, std::string_view name) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveVertexProperty;
  op.src = v;
  op.name.assign(name);
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveEdgeProperty(EdgeRef e, std::string_view name) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveEdgeProperty;
  op.edge = e;
  op.name.assign(name);
  ops_.push_back(std::move(op));
}

Status WriteBatch::Validate() const {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  auto check_vertex = [&vertices](const VertexRef& r) {
    return !r.pending || r.value < vertices;
  };
  auto check_edge = [&edges](const EdgeRef& r) {
    return !r.pending || r.value < edges;
  };
  for (size_t i = 0; i < ops_.size(); ++i) {
    const WriteOp& op = ops_[i];
    bool ok = true;
    switch (op.kind) {
      case WriteOp::Kind::kAddVertex:
        ++vertices;
        break;
      case WriteOp::Kind::kAddEdge:
        ok = check_vertex(op.src) && check_vertex(op.dst);
        ++edges;
        break;
      case WriteOp::Kind::kSetVertexProperty:
      case WriteOp::Kind::kRemoveVertex:
      case WriteOp::Kind::kRemoveVertexProperty:
        ok = check_vertex(op.src);
        break;
      case WriteOp::Kind::kSetEdgeProperty:
      case WriteOp::Kind::kRemoveEdge:
      case WriteOp::Kind::kRemoveEdgeProperty:
        ok = check_edge(op.edge);
        break;
    }
    if (!ok) {
      return Status::InvalidArgument(
          "op " + std::to_string(i) + " (" +
          std::string(WriteOpKindToString(op.kind)) +
          ") forward-references an element not yet created in this batch");
    }
  }
  return Status::OK();
}

// --- Wal --------------------------------------------------------------------

Wal::Wal(WalOptions options)
    : options_(options),
      log_(options.log_extent_bytes, 1),
      values_(options.value_extent_bytes, 1) {}

void Wal::EncodeValue(const PropertyValue& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(static_cast<char>(kValueNull));
  } else if (v.is_bool()) {
    out->push_back(static_cast<char>(kValueBool));
    out->push_back(v.bool_value() ? '\1' : '\0');
  } else if (v.is_int()) {
    out->push_back(static_cast<char>(kValueInt));
    PutVarint64(out, ZigZagEncode(v.int_value()));
  } else if (v.is_double()) {
    out->push_back(static_cast<char>(kValueDouble));
    uint64_t bits;
    double d = v.double_value();
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
  } else {
    const std::string& s = v.string_value();
    if (options_.value_separation_threshold > 0 &&
        s.size() >= options_.value_separation_threshold) {
      // WAL-time value separation: the payload goes to the value journal
      // once; the log record carries a checksummed reference.
      uint64_t offset = values_.Append(s);
      out->push_back(static_cast<char>(kValueSeparatedString));
      PutVarint64(out, offset);
      PutVarint64(out, s.size());
      PutFixed32(out, Crc32c(s));
      ++values_separated_;
    } else {
      out->push_back(static_cast<char>(kValueInlineString));
      PutString(out, s);
    }
  }
}

void Wal::EncodeOp(const WriteOp& op, std::string* payload) {
  payload->push_back(static_cast<char>(op.kind));
  auto encode_props = [&](const PropertyMap& props) {
    PutVarint64(payload, props.size());
    for (const auto& [name, value] : props) {
      PutString(payload, name);
      EncodeValue(value, payload);
    }
  };
  switch (op.kind) {
    case WriteOp::Kind::kAddVertex:
      PutString(payload, op.name);
      encode_props(op.props);
      break;
    case WriteOp::Kind::kAddEdge:
      PutRef(payload, op.src.value, op.src.pending);
      PutRef(payload, op.dst.value, op.dst.pending);
      PutString(payload, op.name);
      encode_props(op.props);
      break;
    case WriteOp::Kind::kSetVertexProperty:
      PutRef(payload, op.src.value, op.src.pending);
      PutString(payload, op.name);
      EncodeValue(op.value, payload);
      break;
    case WriteOp::Kind::kSetEdgeProperty:
      PutRef(payload, op.edge.value, op.edge.pending);
      PutString(payload, op.name);
      EncodeValue(op.value, payload);
      break;
    case WriteOp::Kind::kRemoveVertex:
      PutRef(payload, op.src.value, op.src.pending);
      break;
    case WriteOp::Kind::kRemoveEdge:
      PutRef(payload, op.edge.value, op.edge.pending);
      break;
    case WriteOp::Kind::kRemoveVertexProperty:
      PutRef(payload, op.src.value, op.src.pending);
      PutString(payload, op.name);
      break;
    case WriteOp::Kind::kRemoveEdgeProperty:
      PutRef(payload, op.edge.value, op.edge.pending);
      PutString(payload, op.name);
      break;
  }
}

Result<uint64_t> Wal::LogBatch(const WriteBatch& batch) {
  if (batch.empty()) {
    return Status::InvalidArgument("empty write batch");
  }
  if (log_.dead()) {
    return Status::IOError("write-ahead log device failed");
  }
  GDB_RETURN_IF_ERROR(batch.Validate());

  uint64_t sequence = next_sequence_++;
  std::string payload;
  for (const WriteOp& op : batch.ops()) {
    payload.clear();
    EncodeOp(op, &payload);
    Journal::EncodeRecord(WalRecordType::kMutation, payload, &group_buf_);
  }
  payload.clear();
  PutVarint64(&payload, sequence);
  PutVarint64(&payload, batch.size());
  Journal::EncodeRecord(WalRecordType::kCommit, payload, &group_buf_);
  ++staged_commits_;
  ++commits_logged_;

  if (staged_commits_ >= options_.group_commits ||
      (options_.group_bytes > 0 && group_buf_.size() >= options_.group_bytes)) {
    GDB_RETURN_IF_ERROR(Sync());
  }
  return sequence;
}

Status Wal::Sync() {
  if (group_buf_.empty()) return Status::OK();
  uint64_t flushing = staged_commits_;
  staged_commits_ = 0;
  std::string buf = std::move(group_buf_);
  group_buf_.clear();
  // One AppendDurable per group: this is the group commit — a single
  // device write amortized over `flushing` commits.
  GDB_ASSIGN_OR_RETURN(uint64_t offset, log_.AppendDurable(buf));
  (void)offset;
  durable_commits_ += flushing;
  ++flushes_;
  return Status::OK();
}

Result<RecoveryStats> Wal::Recover(Journal& log, const Journal& values,
                                   BatchApplier apply) {
  RecoveredBatch batch;
  auto visit = [&](WalRecordType type,
                   std::string_view payload) -> Status {
    if (type == WalRecordType::kMutation) {
      GDB_ASSIGN_OR_RETURN(WriteOp op, DecodeOp(payload, values));
      batch.ops.push_back(std::move(op));
      return Status::OK();
    }
    if (type != WalRecordType::kCommit) {
      return Status::Corruption("unexpected record type in mutation log");
    }
    size_t pos = 0;
    GDB_ASSIGN_OR_RETURN(uint64_t sequence, GetVarint64(payload, &pos));
    GDB_ASSIGN_OR_RETURN(uint64_t op_count, GetVarint64(payload, &pos));
    if (op_count != batch.ops.size()) {
      return Status::Corruption(
          "commit record op count " + std::to_string(op_count) +
          " does not match " + std::to_string(batch.ops.size()) +
          " buffered mutations");
    }
    batch.sequence = sequence;
    Status applied = apply(batch);
    batch = RecoveredBatch{};
    return applied;
  };
  Result<RecoveryStats> stats = log.Recover(visit);
  // Journal::Recover guarantees a batch is delivered only when complete;
  // a trailing half-delivered buffer can only exist after a corruption
  // abort, whose records were already excluded from the valid prefix.
  return stats;
}

}  // namespace gdbmicro
