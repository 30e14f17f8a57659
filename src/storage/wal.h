// Write-ahead log for graph mutations: framed, checksummed, group-committed.
//
// The Wal turns a WriteBatch (a staged sequence of graph mutations, with
// forward references to elements created earlier in the same batch) into
// framed kMutation records sealed by one kCommit record — the atomic unit
// recovery replays. Records are staged in a group buffer and reach the
// log journal in one AppendDurable per flush (group commit): with
// `group_commits == 1` every commit is durable when LogBatch returns;
// larger groups trade a bounded window of recent commits for fewer
// device writes, exactly the knob real engines expose.
//
// Value separation (BVLSM's WAL-time key/value separation): string
// property values at or above `value_separation_threshold` bytes are
// appended to a separate value journal and the mutation record carries a
// checksummed {offset, len, crc} reference — large payloads never travel
// through the log hot path twice, and a corrupt value region is detected
// at recovery time like any torn log frame.
//
// Recovery (`Wal::Recover`) drives Journal::Recover over a crashed log:
// complete committed batches are decoded and handed to the applier in
// order; a torn tail, checksum mismatch, op-count mismatch, or failed
// value-reference resolution truncates the log to the last valid commit
// and surfaces a typed kCorruption tail in RecoveryStats — never a crash,
// never a partially applied batch.

#ifndef GDBMICRO_STORAGE_WAL_H_
#define GDBMICRO_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/types.h"
#include "src/storage/journal.h"
#include "src/util/function_ref.h"
#include "src/util/result.h"

namespace gdbmicro {

/// Group-commit and value-separation tunables.
struct WalOptions {
  /// Flush the staged group to the log after this many commits. 1 =
  /// durable on every commit (the safe default); N > 1 = group commit
  /// with at most N-1 recent commits lost on a crash.
  uint64_t group_commits = 1;
  /// Also flush once the staged group reaches this many bytes (0 = no
  /// byte trigger).
  uint64_t group_bytes = 0;
  /// String property values at or above this many bytes are written to
  /// the value journal and referenced from the log record instead of
  /// being inlined. 0 disables separation.
  uint64_t value_separation_threshold = 64;
  /// Extent sizes of the backing journals (small: the WAL is its own
  /// file, not the BlazeGraph store journal).
  uint64_t log_extent_bytes = 256 << 10;
  uint64_t value_extent_bytes = 256 << 10;
};

/// Handle to a vertex created earlier in the same WriteBatch.
struct PendingVertex {
  uint64_t index;
};
/// Handle to an edge created earlier in the same WriteBatch.
struct PendingEdge {
  uint64_t index;
};

/// A vertex named either by an existing engine id or by a forward
/// reference into the batch ("the 3rd vertex this batch creates").
struct VertexRef {
  VertexRef(VertexId id = 0) : value(id) {}          // NOLINT
  VertexRef(PendingVertex p) : value(p.index), pending(true) {}  // NOLINT
  uint64_t value = 0;
  bool pending = false;
};

struct EdgeRef {
  EdgeRef(EdgeId id = 0) : value(id) {}              // NOLINT
  EdgeRef(PendingEdge p) : value(p.index), pending(true) {}  // NOLINT
  uint64_t value = 0;
  bool pending = false;
};

/// One staged mutation. The fields used depend on `kind`; `name` holds
/// the element label for the Add ops and the property name for the
/// property ops.
struct WriteOp {
  enum class Kind : uint8_t {
    kAddVertex = 1,
    kAddEdge = 2,
    kSetVertexProperty = 3,
    kSetEdgeProperty = 4,
    kRemoveVertex = 5,
    kRemoveEdge = 6,
    kRemoveVertexProperty = 7,
    kRemoveEdgeProperty = 8,
  };
  Kind kind = Kind::kAddVertex;
  VertexRef src;        // target vertex (vertex ops), source (kAddEdge)
  VertexRef dst;        // kAddEdge only
  EdgeRef edge;         // target edge (edge ops)
  std::string name;     // label or property name
  PropertyMap props;    // kAddVertex / kAddEdge
  PropertyValue value;  // kSet*Property
};

std::string_view WriteOpKindToString(WriteOp::Kind k);

/// A staged batch of mutations, applied atomically through
/// GraphWriter::Commit. AddVertex/AddEdge return handles usable as refs
/// by later ops of the same batch (a vertex plus its fan-out edges is one
/// atomic unit, the paper's Q.7 shape).
class WriteBatch {
 public:
  PendingVertex AddVertex(std::string_view label, PropertyMap props);
  PendingEdge AddEdge(VertexRef src, VertexRef dst, std::string_view label,
                      PropertyMap props);
  void SetVertexProperty(VertexRef v, std::string_view name,
                         PropertyValue value);
  void SetEdgeProperty(EdgeRef e, std::string_view name, PropertyValue value);
  void RemoveVertex(VertexRef v);
  void RemoveEdge(EdgeRef e);
  void RemoveVertexProperty(VertexRef v, std::string_view name);
  void RemoveEdgeProperty(EdgeRef e, std::string_view name);

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  const std::vector<WriteOp>& ops() const { return ops_; }
  uint64_t pending_vertices() const { return pending_vertices_; }
  uint64_t pending_edges() const { return pending_edges_; }

  /// Forward references must point at elements created *earlier* in this
  /// batch; returns the first violation, or OK.
  Status Validate() const;

 private:
  std::vector<WriteOp> ops_;
  uint64_t pending_vertices_ = 0;
  uint64_t pending_edges_ = 0;
};

/// The write-ahead log. Single-writer (GraphWriter serializes callers);
/// not thread-safe by itself.
class Wal {
 public:
  explicit Wal(WalOptions options = {});

  const WalOptions& options() const { return options_; }

  /// Encodes `batch` as kMutation records sealed by a kCommit record,
  /// stages the frames, and flushes per the group-commit policy. Returns
  /// the batch's sequence number. An IOError (injected device failure)
  /// loses the staged group; the caller must treat the log as dead.
  Result<uint64_t> LogBatch(const WriteBatch& batch);

  /// Force-flushes staged commits to the log journal.
  Status Sync();

  /// A batch decoded back out of the log by Recover.
  struct RecoveredBatch {
    uint64_t sequence = 0;
    std::vector<WriteOp> ops;
  };
  using BatchApplier = FunctionRef<Status(const RecoveredBatch&)>;

  /// Replays `log` (as left behind by a crash) in commit order into
  /// `apply`, resolving separated values from `values`, truncating `log`
  /// to the longest valid committed prefix. See the contract at the top
  /// of this file.
  static Result<RecoveryStats> Recover(Journal& log, const Journal& values,
                                       BatchApplier apply);

  /// Convenience: recover this Wal's own journals.
  Result<RecoveryStats> Recover(BatchApplier apply) {
    return Recover(log_, values_, apply);
  }

  Journal& log() { return log_; }
  const Journal& log() const { return log_; }
  Journal& values() { return values_; }
  const Journal& values() const { return values_; }

  // --- stats -------------------------------------------------------------
  uint64_t commits_logged() const { return commits_logged_; }
  /// Commits whose group has reached the log journal.
  uint64_t durable_commits() const { return durable_commits_; }
  /// Commits staged but not yet flushed (lost if the process dies now).
  uint64_t staged_commits() const { return staged_commits_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t bytes_logged() const { return log_.UsedBytes(); }
  uint64_t values_separated() const { return values_separated_; }
  uint64_t value_bytes() const { return values_.UsedBytes(); }

 private:
  /// Encodes one op, separating large values into the value journal.
  void EncodeOp(const WriteOp& op, std::string* payload);
  void EncodeValue(const PropertyValue& v, std::string* out);

  WalOptions options_;
  Journal log_;
  Journal values_;
  std::string group_buf_;
  uint64_t staged_commits_ = 0;
  uint64_t next_sequence_ = 1;
  uint64_t commits_logged_ = 0;
  uint64_t durable_commits_ = 0;
  uint64_t flushes_ = 0;
  uint64_t values_separated_ = 0;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_WAL_H_
