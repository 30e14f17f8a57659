#include "src/query/algorithms.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "src/graph/path_index.h"

namespace gdbmicro {
namespace query {

namespace {

// Flat visited structure for the BFS/SP expansion, backed by the
// session's TraversalScratch. When the engine exposes a dense vertex-id
// bound, membership is one epoch-stamp compare indexed by vertex slot (no
// hashing, and no O(bound) clear between queries: bumping the epoch
// invalidates every stale mark at once); otherwise it falls back to the
// scratch's reserved hash set. Engines with packed sparse ids (the
// relational backend) take the fallback. The stamp array grows lazily
// (geometric, capped at the bound) so a small search over a huge graph
// never pays an O(bound) allocation up front.
//
// The indexed routes construct it over PathIndex *ordinals* instead of
// engine ids (always dense); the epoch bump at construction is what makes
// the key-space change between queries safe.
class VisitedSet {
 public:
  VisitedSet(TraversalScratch* scratch, uint64_t id_bound)
      : s_(scratch), dense_(id_bound > 0), bound_(id_bound) {
    if (dense_) {
      s_->epoch = static_cast<uint8_t>(s_->epoch + 1);
      if (s_->epoch == 0) {
        // Epoch wrap (every 255 queries): stale stamps could collide with
        // the new epoch, so pay the amortized clear and restart at 1
        // (0 = never visited).
        std::fill(s_->visited_epoch.begin(), s_->visited_epoch.end(),
                  uint8_t{0});
        s_->epoch = 1;
      }
      // Dense mode still needs the sparse set empty: ids at or beyond the
      // engine's declared bound (necessarily unknown vertices, e.g. a bad
      // query parameter) overflow there instead of forcing a stamp array
      // proportional to the id value.
      s_->visited_sparse.clear();
    } else {
      s_->visited_sparse.clear();
      s_->visited_sparse.reserve(1024);
    }
    s_->parent_sparse.clear();
  }

  /// Returns true if v was not yet present (and marks it).
  bool Insert(VertexId v) {
    if (dense_) {
      if (v >= bound_) return s_->visited_sparse.insert(v).second;
      std::vector<uint8_t>& stamps = s_->visited_epoch;
      if (v >= stamps.size()) {
        uint64_t grown = stamps.size() < 1024 ? 1024 : stamps.size() * 2;
        if (grown < v + 1) grown = v + 1;
        if (grown > bound_ && bound_ > v) grown = bound_;
        stamps.resize(grown, uint8_t{0});
      }
      if (stamps[v] == s_->epoch) return false;
      stamps[v] = s_->epoch;
      return true;
    }
    return s_->visited_sparse.insert(v).second;
  }

  /// Insert() that also records v's shortest-path parent when v is new.
  /// A dense link lives in the slot next to v's stamp (and is valid
  /// exactly as long as the stamp), a sparse one beside the sparse mark.
  bool InsertWithParent(VertexId v, VertexId parent) {
    if (!Insert(v)) return false;
    if (dense_ && v < bound_) {
      std::vector<VertexId>& links = s_->parent;
      if (links.size() < s_->visited_epoch.size()) {
        links.resize(s_->visited_epoch.size());
      }
      links[v] = parent;
    } else {
      s_->parent_sparse[v] = parent;
    }
    return true;
  }

  /// The parent recorded for a vertex InsertWithParent admitted.
  VertexId ParentOf(VertexId v) const {
    if (dense_ && v < bound_) return s_->parent[v];
    return s_->parent_sparse.at(v);
  }

 private:
  TraversalScratch* s_;
  bool dense_;
  uint64_t bound_;
};

// Governor charge per newly reached vertex. BFS grows three per-session
// structures per vertex (next frontier, visited list, stamp/set slot); SP
// additionally records a parent link, charged at a hash-map entry's rate
// (node + two ids, the sparse fallback's real cost) whichever store
// holds it, so a budget trips at the same search size on every engine.
// The indexed routes charge the same rates: they grow the same shapes of
// per-query state, and keeping the accounting identical means a memory
// budget trips at the same workload size on either path.
constexpr uint64_t kVisitedVertexBytes = 2 * sizeof(VertexId) + 1;
constexpr uint64_t kReachedVertexBytes = sizeof(VertexId) + 1 + 48;

/// The live index when this query can use it: kAuto, no label filter
/// (the index stores unlabeled adjacency only), and an index present.
/// Records availability in `stats` either way.
const PathIndex* UsableIndex(const GraphEngine& engine,
                             const std::optional<std::string>& label,
                             PathMode mode, PathSearchStats* stats) {
  const PathIndex* index = engine.path_index();
  stats->index_available = index != nullptr;
  if (mode != PathMode::kAuto || label.has_value()) return nullptr;
  return index;
}

/// Level-synchronous BFS over the index CSR (both directions — the
/// paper's both() expansion). Same visited/depth semantics as the
/// frontier route; stops early once the start's connected component is
/// exhausted.
Result<BfsResult> IndexedBreadthFirst(const PathIndex& index,
                                      QuerySession& session, uint32_t start,
                                      int max_depth,
                                      const CancelToken& cancel) {
  BfsResult result;
  result.stats.index_available = true;
  result.stats.used_index = true;
  result.stats.route = "index-bfs";
  cancel.set_position("BreadthFirst(index)");
  TraversalScratch& scratch = session.traversal_scratch();
  VisitedSet stored(&scratch, index.NumVertices());
  stored.Insert(start);
  // Everything reachable at any depth is the start's component: once
  // that many vertices are stored the remaining depths cannot add any.
  uint64_t remaining = index.ComponentSize(start) - 1;
  ++result.stats.index_probes;
  std::vector<VertexId>& frontier = scratch.frontier;
  std::vector<VertexId>& next = scratch.next;
  frontier.assign(1, start);
  next.clear();
  for (int depth = 0; depth < max_depth && !frontier.empty() && remaining > 0;
       ++depth) {
    next.clear();
    for (VertexId vv : frontier) {
      GDB_CHECK_CANCEL(cancel);
      uint32_t v = static_cast<uint32_t>(vv);
      ++result.stats.expanded;
      for (int side = 0; side < 2; ++side) {
        PathIndex::NeighborRange range =
            side == 0 ? index.OutNeighbors(v) : index.InNeighbors(v);
        for (uint32_t w : range) {
          if (stored.Insert(w)) {
            GDB_CHECK_CHARGE(cancel, kVisitedVertexBytes);
            next.push_back(w);
            result.visited.push_back(index.IdOf(w));
            --remaining;
          }
        }
      }
    }
    if (!next.empty()) result.depth_reached = depth + 1;
    std::swap(frontier, next);
  }
  return result;
}

/// Landmark-pruned bidirectional level-synchronous BFS over the index
/// CSR. Returns the minimum-hop distance (<= limit) and fills `out_path`
/// when non-null; kUnreachable when no path of <= limit hops exists.
/// Exactness: a side's level is always expanded in full, and the search
/// only stops once depth_s + depth_t covers the best confirmed meeting —
/// every shorter path would already have produced a meeting vertex. The
/// landmark bound only prunes vertices that cannot lie on any path
/// shorter than the current best and within the limit, so it never
/// changes the answer, only the expansion.
Result<uint32_t> IndexedBidirDistance(const PathIndex& index, uint32_t s,
                                      uint32_t t, uint32_t limit,
                                      const CancelToken& cancel,
                                      PathSearchStats* stats,
                                      std::vector<VertexId>* out_path) {
  struct Entry {
    uint32_t parent;
    uint32_t dist;
  };
  std::unordered_map<uint32_t, Entry> par_s, par_t;  // ord -> toward root
  par_s.reserve(256);
  par_t.reserve(256);
  par_s.emplace(s, Entry{s, 0});
  par_t.emplace(t, Entry{t, 0});
  std::vector<uint32_t> fs{s}, ft{t}, next;
  uint32_t depth_s = 0, depth_t = 0;
  uint32_t best = PathIndex::kUnreachable;
  uint32_t meet = PathIndex::kNoOrd;

  while (!fs.empty() && !ft.empty() && best > depth_s + depth_t &&
         depth_s + depth_t < limit) {
    bool expand_s = fs.size() <= ft.size();
    std::vector<uint32_t>& frontier = expand_s ? fs : ft;
    auto& mine = expand_s ? par_s : par_t;
    auto& other = expand_s ? par_t : par_s;
    uint32_t far_root = expand_s ? t : s;
    uint32_t new_depth = (expand_s ? depth_s : depth_t) + 1;
    // Paths must beat the best confirmed meeting and fit the limit.
    uint32_t cap = std::min(best == PathIndex::kUnreachable
                                ? limit
                                : best - 1,
                            limit);
    next.clear();
    for (uint32_t v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++stats->expanded;
      for (int side = 0; side < 2; ++side) {
        PathIndex::NeighborRange range =
            side == 0 ? index.OutNeighbors(v) : index.InNeighbors(v);
        for (uint32_t w : range) {
          if (mine.count(w) != 0) continue;
          ++stats->index_probes;
          if (new_depth + index.DistanceLowerBound(w, far_root) > cap) {
            continue;  // cannot lie on a useful path — prune
          }
          GDB_CHECK_CHARGE(cancel, kReachedVertexBytes);
          mine.emplace(w, Entry{v, new_depth});
          auto hit = other.find(w);
          if (hit != other.end()) {
            uint32_t total = new_depth + hit->second.dist;
            if (total < best) {
              best = total;
              meet = w;
            }
          }
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
    (expand_s ? depth_s : depth_t) = new_depth;
  }

  if (best > limit) return PathIndex::kUnreachable;
  if (out_path != nullptr) {
    // meet -> s via par_s (reversed), then meet -> t via par_t.
    std::vector<VertexId> left;
    for (uint32_t cur = meet;;) {
      left.push_back(index.IdOf(cur));
      uint32_t p = par_s.at(cur).parent;
      if (p == cur) break;
      cur = p;
    }
    out_path->assign(left.rbegin(), left.rend());
    for (uint32_t cur = meet;;) {
      uint32_t p = par_t.at(cur).parent;
      if (p == cur) break;
      cur = p;
      out_path->push_back(index.IdOf(cur));
    }
  }
  return best;
}

/// Bounded BFS over the index CSR following out-edges only (the directed
/// k-hop residue of KHopReachable). Early-exits on the target.
Result<bool> IndexedDirectedWithin(const PathIndex& index,
                                   QuerySession& session, uint32_t s,
                                   uint32_t t, uint64_t max_hops,
                                   const CancelToken& cancel,
                                   PathSearchStats* stats) {
  TraversalScratch& scratch = session.traversal_scratch();
  VisitedSet stored(&scratch, index.NumVertices());
  stored.Insert(s);
  std::vector<VertexId>& frontier = scratch.frontier;
  std::vector<VertexId>& next = scratch.next;
  frontier.assign(1, s);
  next.clear();
  for (uint64_t depth = 0; depth < max_hops && !frontier.empty(); ++depth) {
    next.clear();
    for (VertexId vv : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++stats->expanded;
      for (uint32_t w : index.OutNeighbors(static_cast<uint32_t>(vv))) {
        if (stored.Insert(w)) {
          GDB_CHECK_CHARGE(cancel, kVisitedVertexBytes);
          if (w == t) return true;
          next.push_back(w);
        }
      }
    }
    std::swap(frontier, next);
  }
  return false;
}

}  // namespace

Result<BfsResult> BreadthFirst(const GraphEngine& engine,
                               QuerySession& session, VertexId start,
                               int max_depth,
                               const std::optional<std::string>& label,
                               const CancelToken& cancel, PathMode mode) {
  BfsResult result;
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t ord = index->OrdOf(start);
    if (ord != PathIndex::kNoOrd) {
      return IndexedBreadthFirst(*index, session, ord, max_depth, cancel);
    }
    // Unknown start id: the engine is the authority (missing-vertex
    // semantics differ per engine) — frontier route below.
  }
  const std::string* label_ptr = label.has_value() ? &*label : nullptr;
  TraversalScratch& scratch = session.traversal_scratch();
  // The Gremlin store(vs) side effect: vs is seeded with the start vertex
  // so except(vs) never re-expands it, but `visited` reports only the
  // vertices *reached* — the start is deliberately absent (see the
  // BfsResult contract in algorithms.h).
  VisitedSet stored(&scratch, engine.VertexIdUpperBound());
  stored.Insert(start);
  cancel.set_position("BreadthFirst");
  std::vector<VertexId>& frontier = scratch.frontier;
  std::vector<VertexId>& next = scratch.next;
  frontier.assign(1, start);
  next.clear();
  // Each newly reached vertex grows three per-session structures (next
  // frontier, visited list, stamp/set slot); the governor is charged that
  // footprint. A trip can't travel through the bool-valued visitor, so it
  // parks and stops the walk.
  Status charge_error = Status::OK();
  for (int depth = 0; depth < max_depth && !frontier.empty(); ++depth) {
    next.clear();
    for (VertexId v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++result.stats.expanded;
      // Stream the expansion: neighbors flow straight into the visited
      // filter and the next frontier, no per-hop vector.
      GDB_RETURN_IF_ERROR(engine.ForEachNeighbor(
          session, v, Direction::kBoth, label_ptr, cancel, [&](VertexId n) {
            if (stored.Insert(n)) {
              if (!cancel.Charge(kVisitedVertexBytes)) {
                charge_error = cancel.ToStatus();
                return false;
              }
              next.push_back(n);
              result.visited.push_back(n);
            }
            return true;
          }));
      GDB_RETURN_IF_ERROR(charge_error);
    }
    if (!next.empty()) result.depth_reached = depth + 1;
    std::swap(frontier, next);
  }
  return result;
}

Result<PathResult> ShortestPath(const GraphEngine& engine,
                                QuerySession& session, VertexId src,
                                VertexId dst,
                                const std::optional<std::string>& label,
                                int max_depth, const CancelToken& cancel,
                                PathMode mode) {
  PathResult result;
  if (src == dst) {
    result.found = true;
    result.path = {src};
    result.stats.route = "trivial";
    result.stats.index_available = engine.path_index() != nullptr;
    return result;
  }
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t s = index->OrdOf(src), t = index->OrdOf(dst);
    if (s != PathIndex::kNoOrd && t != PathIndex::kNoOrd && max_depth >= 0) {
      cancel.set_position("ShortestPath(index)");
      result.stats.used_index = true;
      ++result.stats.index_probes;
      if (!index->SameComponent(s, t)) {
        // Certain negative: no undirected path at any depth.
        result.stats.route = "index-component";
        return result;
      }
      ++result.stats.index_probes;
      if (index->DistanceLowerBound(s, t) >
          static_cast<uint32_t>(max_depth)) {
        // Certain negative: every landmark triangle bound exceeds the
        // depth budget.
        result.stats.route = "index-landmark";
        return result;
      }
      result.stats.route = "index-bidir";
      Result<uint32_t> dist = IndexedBidirDistance(
          *index, s, t, static_cast<uint32_t>(max_depth), cancel,
          &result.stats, &result.path);
      if (!dist.ok()) return dist.status();
      result.found = *dist != PathIndex::kUnreachable;
      if (!result.found) result.path.clear();
      return result;
    }
  }
  const std::string* label_ptr = label.has_value() ? &*label : nullptr;
  TraversalScratch& scratch = session.traversal_scratch();
  // Membership is the hot check (one stamp compare when dense); parent
  // links ride in the session scratch next to the stamps, so a repeated
  // search allocates nothing for them.
  VisitedSet reached(&scratch, engine.VertexIdUpperBound());
  reached.Insert(src);
  cancel.set_position("ShortestPath");
  std::vector<VertexId>& frontier = scratch.frontier;
  std::vector<VertexId>& next = scratch.next;
  frontier.assign(1, src);
  next.clear();
  bool found = false;
  // Per reached vertex: frontier slot, visited stamp, and a parent link,
  // all governor-accounted at kReachedVertexBytes.
  Status charge_error = Status::OK();
  for (int depth = 0; depth < max_depth && !frontier.empty() && !found;
       ++depth) {
    next.clear();
    for (VertexId v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++result.stats.expanded;
      GDB_RETURN_IF_ERROR(engine.ForEachNeighbor(
          session, v, Direction::kBoth, label_ptr, cancel, [&](VertexId n) {
            if (reached.InsertWithParent(n, v)) {
              if (!cancel.Charge(kReachedVertexBytes)) {
                charge_error = cancel.ToStatus();
                return false;
              }
              if (n == dst) {
                found = true;
                return false;  // early-stop the visitor
              }
              next.push_back(n);
            }
            return true;
          }));
      GDB_RETURN_IF_ERROR(charge_error);
      if (found) break;
    }
    std::swap(frontier, next);
  }
  if (found) {
    std::vector<VertexId> rev;
    for (VertexId cur = dst; cur != src; cur = reached.ParentOf(cur)) {
      rev.push_back(cur);
    }
    rev.push_back(src);
    result.path.assign(rev.rbegin(), rev.rend());
    result.found = true;
  }
  return result;  // unreachable within max_depth unless found
}

Result<ReachResult> KHopReachable(const GraphEngine& engine,
                                  QuerySession& session, VertexId src,
                                  VertexId dst, Direction dir, int max_hops,
                                  const std::optional<std::string>& label,
                                  const CancelToken& cancel, PathMode mode) {
  ReachResult result;
  result.stats.index_available = engine.path_index() != nullptr;
  if (src == dst) {
    result.reachable = true;
    result.stats.route = "trivial";
    return result;
  }
  if (max_hops == 0) {
    result.stats.route = "trivial";
    return result;  // 0 hops reaches only src itself
  }
  const uint64_t hop_budget = max_hops < 0
                                  ? std::numeric_limits<uint64_t>::max()
                                  : static_cast<uint64_t>(max_hops);
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t s = index->OrdOf(src), t = index->OrdOf(dst);
    if (s != PathIndex::kNoOrd && t != PathIndex::kNoOrd) {
      cancel.set_position("KHopReachable(index)");
      result.stats.used_index = true;
      if (dir == Direction::kBoth) {
        ++result.stats.index_probes;
        switch (index->WithinHops(s, t, hop_budget)) {
          case PathIndex::Answer::kYes:
            result.stats.route = "index-landmark";
            result.reachable = true;
            return result;
          case PathIndex::Answer::kNo:
            result.stats.route = index->SameComponent(s, t)
                                     ? "index-landmark"
                                     : "index-component";
            return result;
          case PathIndex::Answer::kMaybe:
            break;
        }
        // Residue: bounded distance needed. The bidirectional search
        // answers it without path materialization.
        result.stats.route = "index-bidir";
        uint32_t limit = static_cast<uint32_t>(
            std::min<uint64_t>(hop_budget, PathIndex::kUnreachable - 1));
        Result<uint32_t> dist = IndexedBidirDistance(
            *index, s, t, limit, cancel, &result.stats, nullptr);
        if (!dist.ok()) return dist.status();
        result.reachable = *dist != PathIndex::kUnreachable;
        return result;
      }
      // Directed: phrase kIn as out-reachability from the far end.
      uint32_t a = dir == Direction::kOut ? s : t;
      uint32_t b = dir == Direction::kOut ? t : s;
      ++result.stats.index_probes;
      PathIndex::Answer quick = index->Reachable(a, b);
      if (quick == PathIndex::Answer::kNo) {
        // The near-O(1) negative certificate: some labeling refuted
        // interval containment.
        result.stats.route = "index-interval";
        return result;
      }
      if (max_hops < 0) {
        if (quick == PathIndex::Answer::kYes) {
          result.stats.route = "index-interval";
          result.reachable = true;
          return result;
        }
        result.stats.route = "index-dag-dfs";
        Result<bool> exact = index->ReachableExact(
            a, b, cancel, &result.stats.index_probes);
        if (!exact.ok()) return exact.status();
        result.reachable = *exact;
        return result;
      }
      // Bounded directed: reachability is certain or refuted above, but
      // the hop count still needs a bounded CSR walk.
      result.stats.route = "index-csr-bfs";
      Result<bool> within = IndexedDirectedWithin(*index, session, a, b,
                                                  hop_budget, cancel,
                                                  &result.stats);
      if (!within.ok()) return within.status();
      result.reachable = *within;
      return result;
    }
  }

  // Frontier fallback: direction-aware BFS with early target exit.
  const std::string* label_ptr = label.has_value() ? &*label : nullptr;
  TraversalScratch& scratch = session.traversal_scratch();
  VisitedSet stored(&scratch, engine.VertexIdUpperBound());
  stored.Insert(src);
  cancel.set_position("KHopReachable");
  std::vector<VertexId>& frontier = scratch.frontier;
  std::vector<VertexId>& next = scratch.next;
  frontier.assign(1, src);
  next.clear();
  bool found = false;
  Status charge_error = Status::OK();
  for (uint64_t depth = 0; depth < hop_budget && !frontier.empty() && !found;
       ++depth) {
    next.clear();
    for (VertexId v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++result.stats.expanded;
      GDB_RETURN_IF_ERROR(engine.ForEachNeighbor(
          session, v, dir, label_ptr, cancel, [&](VertexId n) {
            if (stored.Insert(n)) {
              if (!cancel.Charge(kVisitedVertexBytes)) {
                charge_error = cancel.ToStatus();
                return false;
              }
              if (n == dst) {
                found = true;
                return false;
              }
              next.push_back(n);
            }
            return true;
          }));
      GDB_RETURN_IF_ERROR(charge_error);
      if (found) break;
    }
    std::swap(frontier, next);
  }
  result.reachable = found;
  return result;
}

}  // namespace query
}  // namespace gdbmicro
