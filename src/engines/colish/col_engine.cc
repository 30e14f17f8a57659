#include "src/engines/colish/col_engine.h"

#include <algorithm>

#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace gdbmicro {

ColEngine::ColEngine(bool v10) : v10_(v10) {}

EngineInfo ColEngine::info() const {
  EngineInfo info;
  info.name = std::string(name());
  info.emulates = v10_ ? "Titan 1.0" : "Titan 0.5";
  info.type = "Hybrid (Columnar)";
  info.storage = "Vertex-indexed adjacency lists (delta-encoded)";
  info.edge_traversal = "Row-key index";
  info.query_execution = QueryExecution::kConflated;
  info.query_execution_display = "Optimized (step conflation)";
  info.supports_property_index = true;
  return info;
}

Status ColEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  // Cassandra write path: consistency-check reads + commit-log flush per
  // mutation. v1.0 is the production-tuned release (lower charges) and
  // fronts row reads with a cache.
  backend_.per_write_us = v10_ ? 2500 : 3500;
  backend_.per_read_us = v10_ ? 250 : 400;
  backend_.enabled = options.enable_cost_model;
  tombstone_write_us_ = backend_.per_write_us / 10;
  return Status::OK();
}

const ColEngine::Row* ColEngine::FetchRow(QuerySession& session,
                                          VertexId v) const {
  const Row* row = rows_.Get(v);
  if (row == nullptr) return nullptr;
  ColSession& s = static_cast<ColSession&>(session);
  if (s.row_cache != nullptr) {
    if (s.row_cache->Get(v) == nullptr) {
      backend_.ChargeRead();  // cache miss: backend row fetch
      s.row_cache->Put(v, 1);
    }
  } else {
    backend_.ChargeRead();
  }
  return row;
}

const ColEngine::Row* ColEngine::FetchRowBatched(QuerySession& session,
                                                 VertexId v) const {
  const Row* row = rows_.Get(v);
  if (row == nullptr) return nullptr;
  ColSession& s = static_cast<ColSession&>(session);
  if (s.row_cache != nullptr && s.row_cache->Get(v) != nullptr) return row;
  if (s.batched_reads++ % kReadBatch == 0) backend_.ChargeRead();
  if (s.row_cache != nullptr) s.row_cache->Put(v, 1);
  return row;
}

ColEngine::AdjEntry* ColEngine::FindOutEntry(EdgeId e) {
  Row* row = rows_.Get(SrcOf(e));
  if (row == nullptr || LocalOf(e) >= row->adj.size()) return nullptr;
  AdjEntry& entry = row->adj[LocalOf(e)];
  if (!entry.out || entry.edge != e || entry.tombstone) return nullptr;
  return &entry;
}

const ColEngine::AdjEntry* ColEngine::FindOutEntry(EdgeId e) const {
  return const_cast<ColEngine*>(this)->FindOutEntry(e);
}

// --- CRUD -----------------------------------------------------------------------

Result<VertexId> ColEngine::AddVertex(std::string_view label,
                                      const PropertyMap& props) {
  backend_.ChargeWrite();
  VertexId id = next_vertex_++;
  Row row;
  row.label = labels_.Intern(label);
  row.props = props;
  rows_.Put(id, std::move(row));
  for (const auto& [k, v] : props) IndexInsert(k, v, id);
  return id;
}

Result<EdgeId> ColEngine::AddEdge(VertexId src, VertexId dst,
                                  std::string_view label,
                                  const PropertyMap& props) {
  // Consistency checks: both endpoint rows are read before the mutation.
  backend_.ChargeRead();
  backend_.ChargeRead();
  backend_.ChargeWrite();
  Row* src_row = rows_.Get(src);
  if (src_row == nullptr) return Status::NotFound("edge endpoint not found");
  if (!rows_.Contains(dst)) return Status::NotFound("edge endpoint not found");
  if (src_row->adj.size() >= kMaxRowEntries) {
    return Status::OutOfRange("titan row " + std::to_string(src) +
                              " is full: edge ids address at most " +
                              std::to_string(kMaxRowEntries) + " entries");
  }
  uint32_t label_id = labels_.Intern(label);
  EdgeId id = PackEdgeId(src, src_row->adj.size());
  AdjEntry out;
  out.label = label_id;
  out.out = true;
  out.other = dst;
  out.edge = id;
  out.eprops = props;
  src_row->adj.push_back(std::move(out));
  Row* dst_row = rows_.Get(dst);  // may have been invalidated by rehash? no: Put not called
  AdjEntry in;
  in.label = label_id;
  in.out = false;
  in.other = src;
  in.edge = id;
  dst_row->adj.push_back(std::move(in));
  return id;
}

Result<LoadMapping> ColEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);
  const VertexId base = next_vertex_;

  // Rows are assembled in a flat array first: edges index it directly by
  // dataset position, so the element pass does zero hash probes.
  std::vector<Row> rows(nv);
  std::vector<uint32_t> degree(nv, 0);
  for (const auto& e : data.edges) {
    // degree[e.src] is the position e's out entry will take, so this
    // refuses exactly the edges AddEdge would, before anything is mutated.
    if (degree[e.src] >= kMaxRowEntries) {
      return Status::OutOfRange("titan row for vertex " +
                                std::to_string(e.src) +
                                " is full: edge ids address at most " +
                                std::to_string(kMaxRowEntries) + " entries");
    }
    ++degree[e.src];
    ++degree[e.dst];
  }
  for (size_t i = 0; i < nv; ++i) {
    rows[i].label = labels_.Intern(data.vertices[i].label);
    rows[i].props = data.vertices[i].properties;
    rows[i].adj.reserve(degree[i]);
    mapping.vertex_ids.push_back(base + i);
    if (!indexes_.empty()) {
      for (const auto& [k, val] : data.vertices[i].properties) {
        IndexInsert(k, val, base + i);
      }
    }
  }
  for (const auto& e : data.edges) {
    Row& src_row = rows[e.src];
    uint32_t label_id = labels_.Intern(e.label);
    EdgeId id = PackEdgeId(base + e.src, src_row.adj.size());
    AdjEntry& out = src_row.adj.emplace_back();
    out.label = label_id;
    out.other = base + e.dst;
    out.edge = id;
    out.eprops = e.properties;
    AdjEntry& in = rows[e.dst].adj.emplace_back();
    in.label = label_id;
    in.out = false;
    in.other = base + e.src;
    in.edge = id;
    mapping.edge_ids.push_back(id);
  }
  rows_.Reserve(rows_.size() + nv);
  for (size_t i = 0; i < nv; ++i) {
    rows_.Put(base + i, std::move(rows[i]));
  }
  next_vertex_ += nv;

  if (backend_.enabled) {
    // Batched mutations, schema predefined: a reduced per-item charge in
    // place of per-op commits.
    int64_t per_item_us = v10_ ? 2 : 3;
    SpinFor(per_item_us * static_cast<int64_t>(nv + ne));
  }
  return mapping;
}

Status ColEngine::SetVertexProperty(VertexId v, std::string_view name,
                                    const PropertyValue& value) {
  backend_.ChargeWrite();
  Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  if (const PropertyValue* prev = FindProperty(row->props, name)) {
    IndexErase(name, *prev, v);
  }
  SetProperty(&row->props, name, value);
  IndexInsert(name, value, v);
  return Status::OK();
}

Status ColEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                  const PropertyValue& value) {
  backend_.ChargeWrite();
  AdjEntry* entry = FindOutEntry(e);
  if (entry == nullptr) return Status::NotFound("edge not found");
  SetProperty(&entry->eprops, name, value);
  return Status::OK();
}

Result<VertexRecord> ColEngine::GetVertex(QuerySession& session,
                                          VertexId id) const {
  const Row* row = FetchRow(session, id);
  if (row == nullptr) return Status::NotFound("vertex not found");
  VertexRecord rec;
  rec.id = id;
  rec.label = labels_.Get(row->label);
  rec.properties = row->props;
  return rec;
}

Result<EdgeRecord> ColEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  backend_.ChargeRead();
  const AdjEntry* entry = FindOutEntry(id);
  if (entry == nullptr) return Status::NotFound("edge not found");
  EdgeRecord rec;
  rec.id = id;
  rec.src = SrcOf(id);
  rec.dst = entry->other;
  rec.label = labels_.Get(entry->label);
  rec.properties = entry->eprops;
  return rec;
}

Result<std::vector<VertexId>> ColEngine::FindVerticesByProperty(QuerySession& /*session*/, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  auto it = indexes_.find(prop);
  if (it != indexes_.end()) {
    // Graph-centric index. The fast path stays cooperative: a hot key
    // can fan out to a large posting list.
    std::vector<VertexId> out;
    bool cancelled = false;
    it->second.ScanKey(value, [&](const VertexId& id) {
      if (cancel.Expired()) {
        cancelled = true;
        return false;
      }
      out.push_back(id);
      return true;
    });
    if (cancelled) return cancel.ToStatus();
    return out;
  }
  // Unindexed: a full sliced scan of the row store (batched backend
  // reads), not a point fetch per vertex.
  std::vector<VertexId> out;
  uint64_t visited = 0;
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row& row) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    if (backend_.enabled && visited++ % kReadBatch == 0) backend_.ChargeRead();
    const PropertyValue* p = FindProperty(row.props, prop);
    if (p != nullptr && *p == value) out.push_back(id);
    return true;
  });
  GDB_RETURN_IF_ERROR(status);
  return out;
}

Result<std::vector<EdgeId>> ColEngine::FindEdgesByProperty(QuerySession& /*session*/, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  std::vector<EdgeId> out;
  uint64_t visited = 0;
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId&, const Row& row) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    if (backend_.enabled && visited++ % kReadBatch == 0) backend_.ChargeRead();
    for (const AdjEntry& entry : row.adj) {
      if (!entry.out || entry.tombstone) continue;
      const PropertyValue* p = FindProperty(entry.eprops, prop);
      if (p != nullptr && *p == value) out.push_back(entry.edge);
    }
    return true;
  });
  GDB_RETURN_IF_ERROR(status);
  return out;
}

Status ColEngine::RemoveEdge(EdgeId e) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  AdjEntry* out_entry = FindOutEntry(e);
  if (out_entry == nullptr) return Status::NotFound("edge not found");
  out_entry->tombstone = true;
  out_entry->eprops.clear();
  TombstoneInEntry(out_entry->other, e);
  return Status::OK();
}

void ColEngine::TombstoneInEntry(VertexId dst, EdgeId e) {
  // The in entry's position in the destination row is not recorded
  // anywhere (AdjEntry has no room for it), so this is a scan of dst's row.
  Row* dst_row = rows_.Get(dst);
  if (dst_row == nullptr) return;
  for (AdjEntry& entry : dst_row->adj) {
    if (!entry.out && entry.edge == e && !entry.tombstone) {
      entry.tombstone = true;
      return;
    }
  }
}

Status ColEngine::RemoveVertex(VertexId v) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  // v's own row, self-loops included, is erased below; what remains is
  // the mirror of each live entry in the other endpoint's row. An in
  // entry's mirror is the out entry its id addresses (O(1)); an out
  // entry's mirror takes TombstoneInEntry's scan of the neighbour's row.
  for (const AdjEntry& entry : row->adj) {
    if (entry.tombstone || entry.other == v) continue;
    if (entry.out) {
      TombstoneInEntry(entry.other, entry.edge);
    } else if (AdjEntry* mirror = FindOutEntry(entry.edge)) {
      mirror->tombstone = true;
      mirror->eprops.clear();
    }
  }
  for (const auto& [k, val] : row->props) IndexErase(k, val, v);
  rows_.Erase(v);
  return Status::OK();
}

Status ColEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  if (const PropertyValue* prev = FindProperty(row->props, name)) {
    IndexErase(name, *prev, v);
  }
  if (!EraseProperty(&row->props, name)) {
    return Status::NotFound("no such property");
  }
  return Status::OK();
}

Status ColEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  AdjEntry* entry = FindOutEntry(e);
  if (entry == nullptr) return Status::NotFound("edge not found");
  if (!EraseProperty(&entry->eprops, name)) {
    return Status::NotFound("no such property");
  }
  return Status::OK();
}

// --- scans / traversal ----------------------------------------------------------

Status ColEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, FunctionRef<bool(VertexId)> fn) const {
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row&) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    return fn(id);
  });
  return status;
}

Status ColEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    FunctionRef<bool(const EdgeEnds&)> fn) const {
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row& row) {
    for (const AdjEntry& entry : row.adj) {
      if (cancel.Expired()) {
        status = cancel.ToStatus();
        return false;
      }
      if (!entry.out || entry.tombstone) continue;
      EdgeEnds ends;
      ends.id = entry.edge;
      ends.src = id;
      ends.dst = entry.other;
      ends.label = labels_.Get(entry.label);
      if (!fn(ends)) return false;
    }
    return true;
  });
  return status;
}

Status ColEngine::WalkAdj(QuerySession& session, VertexId v, Direction dir,
                          const std::string* label, const CancelToken& cancel,
                          FunctionRef<bool(const AdjEntry&)> fn) const {
  uint32_t label_id =
      label != nullptr ? labels_.Lookup(*label) : Dictionary::kNoId;
  if (label != nullptr && label_id == Dictionary::kNoId) {
    return Status::OK();  // unknown label: no edges
  }
  // Row-key index hop, sliced reads through the session window.
  const Row* row = FetchRowBatched(session, v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  for (const AdjEntry& entry : row->adj) {
    if (cancel.Expired()) return cancel.ToStatus();
    if (entry.tombstone) continue;
    if (label != nullptr && entry.label != label_id) continue;
    bool self_loop = entry.other == v;
    if (self_loop && !entry.out) continue;  // counted once via out entry
    bool matches = dir == Direction::kBoth ||
                   (dir == Direction::kOut && entry.out) ||
                   (dir == Direction::kIn && !entry.out) || self_loop;
    if (matches && !fn(entry)) return Status::OK();
  }
  return Status::OK();
}

Status ColEngine::ForEachEdgeOf(QuerySession& session, VertexId v,
                                Direction dir, const std::string* label,
                                const CancelToken& cancel,
                                FunctionRef<bool(EdgeId)> fn) const {
  return WalkAdj(session, v, dir, label, cancel,
                 [&](const AdjEntry& entry) { return fn(entry.edge); });
}

Status ColEngine::ForEachNeighbor(QuerySession& session, VertexId v,
                                  Direction dir, const std::string* label,
                                  const CancelToken& cancel,
                                  FunctionRef<bool(VertexId)> fn)
    const {
  return WalkAdj(session, v, dir, label, cancel,
                 [&](const AdjEntry& entry) { return fn(entry.other); });
}

Status ColEngine::ForEachEdgeLabel(
    QuerySession& session, VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel,
    FunctionRef<bool(std::string_view)> fn) const {
  return WalkAdj(session, v, dir, label, cancel, [&](const AdjEntry& entry) {
    return fn(labels_.Get(entry.label));
  });
}

Result<EdgeEnds> ColEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  const AdjEntry* entry = FindOutEntry(e);
  if (entry == nullptr) return Status::NotFound("edge not found");
  EdgeEnds ends;
  ends.id = e;
  ends.src = SrcOf(e);
  ends.dst = entry->other;
  ends.label = labels_.Get(entry->label);
  return ends;
}

Result<uint64_t> ColEngine::CountEdgesOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                         const CancelToken& cancel) const {
  (void)cancel;
  const Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  if (!v10_) backend_.ChargeRead();  // v0.5: per-row backend fetch
  uint64_t n = 0;
  for (const AdjEntry& entry : row->adj) {
    if (entry.tombstone) continue;
    bool self_loop = entry.other == v;
    if (self_loop && !entry.out) continue;
    bool matches = dir == Direction::kBoth ||
                   (dir == Direction::kOut && entry.out) ||
                   (dir == Direction::kIn && !entry.out) || self_loop;
    if (matches) ++n;
  }
  return n;
}

// --- index / persistence ----------------------------------------------------------

Status ColEngine::CreateVertexPropertyIndex(std::string_view prop) {
  std::string key(prop);
  if (indexes_.count(key) != 0) return Status::OK();
  BTree<PropertyValue, VertexId>& index = indexes_[key];
  rows_.ForEach([&](const VertexId& id, const Row& row) {
    if (const PropertyValue* v = FindProperty(row.props, prop)) {
      index.Insert(*v, id);
    }
    return true;
  });
  return Status::OK();
}

bool ColEngine::HasVertexPropertyIndex(std::string_view prop) const {
  return indexes_.find(prop) != indexes_.end();
}

void ColEngine::IndexInsert(std::string_view prop, const PropertyValue& v,
                            VertexId id) {
  auto it = indexes_.find(prop);
  if (it != indexes_.end()) it->second.Insert(v, id);
}

void ColEngine::IndexErase(std::string_view prop, const PropertyValue& v,
                           VertexId id) {
  auto it = indexes_.find(prop);
  if (it != indexes_.end()) it->second.Erase(v, id);
}

Status ColEngine::Checkpoint(const std::string& dir) const {
  // SSTable-style dump: rows sorted by key, adjacency compacted
  // (tombstones dropped) and neighbor ids delta+varint encoded per
  // (label, direction) run — Titan's compact adjacency representation.
  std::vector<VertexId> keys;
  keys.reserve(rows_.size());
  rows_.ForEach([&](const VertexId& id, const Row&) {
    keys.push_back(id);
    return true;
  });
  std::sort(keys.begin(), keys.end());

  std::string buf;
  PutVarint64(&buf, keys.size());
  for (VertexId id : keys) {
    const Row* row = rows_.Get(id);
    PutVarint64(&buf, id);
    PutVarint64(&buf, row->label);
    EncodePropertyMap(row->props, &buf);
    // Group live adjacency entries by (label, dir); delta-encode ids.
    std::map<std::pair<uint32_t, bool>, std::vector<uint64_t>> groups;
    std::string eprops;
    uint64_t eprop_count = 0;
    for (const AdjEntry& entry : row->adj) {
      if (entry.tombstone) continue;
      groups[{entry.label, entry.out}].push_back(entry.other);
      if (entry.out && !entry.eprops.empty()) {
        PutVarint64(&eprops, entry.edge);
        EncodePropertyMap(entry.eprops, &eprops);
        ++eprop_count;
      }
    }
    PutVarint64(&buf, groups.size());
    for (auto& [key, ids] : groups) {
      PutVarint64(&buf, key.first);
      buf.push_back(key.second ? 1 : 0);
      std::sort(ids.begin(), ids.end());
      EncodeDeltaList(ids, &buf);
    }
    PutVarint64(&buf, eprop_count);
    buf.append(eprops);
  }
  GDB_RETURN_IF_ERROR(WriteFile(dir, "edgestore.sst", buf));

  buf.clear();
  labels_.Serialize(&buf);
  GDB_RETURN_IF_ERROR(WriteFile(dir, "schema.sst", buf));

  buf.clear();
  PutVarint64(&buf, indexes_.size());
  for (const auto& [prop, index] : indexes_) {
    PutVarint64(&buf, prop.size());
    buf.append(prop);
    PutVarint64(&buf, index.size());
    index.ScanAll([&buf](const PropertyValue& k, const VertexId& v) {
      k.EncodeTo(&buf);
      PutVarint64(&buf, v);
      return true;
    });
  }
  return WriteFile(dir, "graphindex.sst", buf);
}

uint64_t ColEngine::MemoryBytes() const {
  uint64_t total = rows_.MemoryBytes() + labels_.MemoryBytes();
  rows_.ForEach([&](const VertexId&, const Row& row) {
    total += row.adj.capacity() * sizeof(AdjEntry);
    return true;
  });
  for (const auto& [prop, index] : indexes_) {
    (void)prop;
    total += index.SerializedBytes(24);
  }
  return total;
}

std::unique_ptr<GraphEngine> MakeColEngine(bool v10) {
  return std::make_unique<ColEngine>(v10);
}

}  // namespace gdbmicro
