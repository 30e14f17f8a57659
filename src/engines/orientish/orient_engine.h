// OrientDB-style native multi-model engine ("orientish").
//
// Storage layout (paper §3.2): records live in append-only *clusters*; a
// record id is a logical id mapped to a physical position through an
// indirection table, so updates append a new version and repoint. There is
// one cluster for vertices and one cluster *per edge label* (the paper
// repeatedly observes OrientDB's and Sqlg's load/space sensitivity to edge
// label cardinality because both "create and use different structures for
// different edge labels").
//
// Adjacency is embedded in the vertex record ("ridbag") while small; past
// kEmbeddedAdjLimit it moves to an external bag, mirroring OrientDB's
// embedded-to-tree ridbag switch. Edge traversal is the paper's "2-hop
// pointer": vertex record -> edge record -> other vertex.

#ifndef GDBMICRO_ENGINES_ORIENTISH_ORIENT_ENGINE_H_
#define GDBMICRO_ENGINES_ORIENTISH_ORIENT_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engines/common/dictionary.h"
#include "src/graph/engine.h"
#include "src/storage/append_store.h"
#include "src/storage/btree.h"
#include "src/util/hash.h"

namespace gdbmicro {

class OrientEngine : public GraphEngine {
 public:
  OrientEngine() = default;

  std::string_view name() const override { return "orient"; }
  EngineInfo info() const override;
  Status Open(const EngineOptions& options) override;

  Result<VertexId> AddVertex(std::string_view label,
                             const PropertyMap& props) override;
  Result<EdgeId> AddEdge(VertexId src, VertexId dst, std::string_view label,
                         const PropertyMap& props) override;
  Status SetVertexProperty(VertexId v, std::string_view name,
                           const PropertyValue& value) override;
  Status SetEdgeProperty(EdgeId e, std::string_view name,
                         const PropertyValue& value) override;

  Result<VertexRecord> GetVertex(QuerySession& session, VertexId id) const override;
  Result<EdgeRecord> GetEdge(QuerySession& session, EdgeId id) const override;
  Result<std::vector<std::string>> DistinctEdgeLabels(QuerySession& session, 
      const CancelToken& cancel) const override;
  Result<std::vector<EdgeId>> FindEdgesByLabel(QuerySession& session, 
      std::string_view label, const CancelToken& cancel) const override;
  Result<std::vector<VertexId>> FindVerticesByProperty(QuerySession& session, 
      std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const override;

  Status RemoveVertex(VertexId v) override;
  Status RemoveEdge(EdgeId e) override;
  Status RemoveVertexProperty(VertexId v, std::string_view name) override;
  Status RemoveEdgeProperty(EdgeId e, std::string_view name) override;

  Status ScanVertices(QuerySession& session, const CancelToken& cancel,
                      FunctionRef<bool(VertexId)> fn) const override;
  Status ScanEdges(QuerySession& session, 
      const CancelToken& cancel,
      FunctionRef<bool(const EdgeEnds&)> fn) const override;
  /// Streams the ridbag (embedded or external). Label filtering needs no
  /// edge-record read — the cluster id packed into the edge id *is* the
  /// label. Self-loop dedup and neighbor resolution decode only the two
  /// endpoint varints of the edge blob (no property materialization).
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       FunctionRef<bool(EdgeId)> fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         FunctionRef<bool(VertexId)> fn) const override;
  /// Labels from the per-label cluster of each ridbag entry.
  Status ForEachEdgeLabel(
      QuerySession& session, VertexId v, Direction dir,
      const std::string* label, const CancelToken& cancel,
      FunctionRef<bool(std::string_view)> fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  uint64_t VertexIdUpperBound() const override {
    return vertex_store_.LogicalCount();
  }

  Status CreateVertexPropertyIndex(std::string_view prop) override;
  bool HasVertexPropertyIndex(std::string_view prop) const override;

  Status Checkpoint(const std::string& dir) const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader: clusters are created up front (one bookkeeping charge
  /// per new edge label), edge ids are precomputed, full ridbags are
  /// assembled in memory, and every vertex record is encoded and appended
  /// exactly once with its final adjacency — instead of a decode +
  /// re-append of the vertex blob per incident edge.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  // Past this many incident edges (per direction) adjacency moves out of
  // the record into an external bag.
  static constexpr size_t kEmbeddedAdjLimit = 64;

  // Edge ids pack (cluster index, local id).
  static constexpr int kClusterShift = 44;
  static EdgeId PackEdgeId(uint64_t cluster, uint64_t local) {
    return (cluster << kClusterShift) | local;
  }
  static uint64_t ClusterOf(EdgeId id) { return id >> kClusterShift; }
  static uint64_t LocalOf(EdgeId id) {
    return id & ((1ULL << kClusterShift) - 1);
  }

  struct VertexData {
    uint32_t label = 0;
    PropertyMap props;
    bool external_adj = false;
    std::vector<EdgeId> out_edges;  // embedded only
    std::vector<EdgeId> in_edges;
  };
  struct EdgeData {
    VertexId src = 0;
    VertexId dst = 0;
    PropertyMap props;
  };
  struct ExternalBag {
    std::vector<EdgeId> out_edges;
    std::vector<EdgeId> in_edges;
  };
  struct Cluster {
    std::string label;
    AppendStore store;
  };

  static void EncodeVertex(const VertexData& v, std::string* out);
  Result<VertexData> DecodeVertex(std::string_view blob) const;
  static void EncodeEdge(const EdgeData& e, std::string* out);
  Result<EdgeData> DecodeEdge(std::string_view blob) const;

  Result<VertexData> LoadVertex(VertexId id) const;
  Status StoreVertex(VertexId id, const VertexData& v);
  Result<EdgeData> LoadEdge(EdgeId id) const;
  Status StoreEdge(EdgeId id, const EdgeData& e);

  uint64_t ClusterForLabel(std::string_view label);

  // Adjacency access regardless of embedded/external representation.
  Status AppendAdjacency(VertexId v, EdgeId e, bool outgoing);
  Status EraseAdjacency(VertexId v, EdgeId e, bool outgoing);
  Status CollectAdjacency(VertexId v, Direction dir,
                          std::vector<EdgeId>* out) const;

  // Resolves v's out/in edge lists from the external bag or the embedded
  // record (decoded into *scratch). The returned pointers stay valid for
  // the lifetime of *scratch / the bag entry.
  Status AdjacencyLists(VertexId v, const std::vector<EdgeId>** out_list,
                        const std::vector<EdgeId>** in_list,
                        VertexData* scratch) const;

  // Reads only the (src, dst) varint header of e's record — the 2-hop
  // pointer chase without property materialization.
  Result<std::pair<VertexId, VertexId>> ReadEdgeEndpoints(EdgeId e) const;

  // The shared ridbag walk: streams edges matching (dir, label) with
  // self-loops emitted once via the out side. `other` is the far endpoint
  // when `want_other` is set, kInvalidId otherwise (lets ForEachEdgeOf
  // skip the endpoint read unless kBoth dedup forces it).
  Status WalkIncident(
      VertexId v, Direction dir, const std::string* label,
      const CancelToken& cancel, bool want_other,
      FunctionRef<bool(EdgeId, VertexId other)> fn) const;

  void IndexInsert(std::string_view prop, const PropertyValue& v, VertexId id);
  void IndexErase(std::string_view prop, const PropertyValue& v, VertexId id);
  Status RemoveEdgeInternal(EdgeId e, VertexId skip_endpoint);

  AppendStore vertex_store_;
  std::vector<Cluster> clusters_;
  std::unordered_map<std::string, uint64_t, TransparentStringHash,
                     std::equal_to<>>
      cluster_by_label_;
  std::unordered_map<VertexId, ExternalBag> bags_;
  Dictionary vertex_labels_;
  CostModel cost_;

  std::map<std::string, BTree<PropertyValue, VertexId>, std::less<>> indexes_;
};

std::unique_ptr<GraphEngine> MakeOrientEngine();

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_ORIENTISH_ORIENT_ENGINE_H_
