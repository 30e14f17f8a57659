// The timed phases: op execution, engine interleaving, client threads,
// and the correctness gates.

#include <barrier>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "perfbench/src/perfbench.h"
#include "perfbench/src/trace.h"
#include "src/graph/writer.h"
#include "src/query/governor.h"

namespace perfbench {

namespace {

using gdbmicro::QuerySession;

// Ops each engine runs per round on a single-client workload. Every
// engine runs the same stream positions, so a slow engine's figures
// rest on as many ops as a fast one's (titan's time on mico is set by
// a few hub ops, which a time slice would sample a handful of times).
// At 2048 ops the fastest engines' slices last about 10 ms.
constexpr size_t kSliceOps = 2048;
// Throughput windows within a single-client slice (see PhaseStats::rates).
// On titan05, the median rate over 256-op windows moved 5 % between
// seeds, over 2048-op windows 17 %.
constexpr size_t kWindowOps = 256;
static_assert(kSliceOps % kWindowOps == 0);

/// Records the item count a read returned at stream position `pos`; a
/// position that runs again must return the same count.
void NoteItems(std::vector<uint64_t>& seen_at, std::string& mismatch,
               size_t pos, uint64_t items) {
  uint64_t& seen = seen_at[pos];
  if (seen == kUnset) {
    seen = items;
  } else if (seen != items && mismatch.empty()) {
    mismatch = "read stream position " + std::to_string(pos) + " returned " +
               std::to_string(items) + " items, earlier " +
               std::to_string(seen);
  }
}
void NoteItems(Variant& v, size_t pos, uint64_t items) {
  NoteItems(v.items, v.mismatch, pos, items);
}

/// Runs one read op on the reference store, timed like ExecOp.
uint64_t ReferenceOp(const Bench& b, const Op& op, int64_t* ns) {
  const int64_t t0 = NowNs();
  const uint64_t items = b.reference->Run(op);
  *ns = NowNs() - t0;
  return items;
}

/// Commits the next writes_per_slice ops of the write stream to the
/// variant (ctx is bound to it).
void WriteBurst(Bench& b, Variant& v, core::QueryContext& ctx, Tracer* tracer,
                int slot, Tally& tally) {
  for (int q = 0; q < b.writes_per_slice; ++q) {
    uint64_t items = 0;
    int64_t ns = 0;
    Status st = ExecOp(v, ctx, nullptr, b.writes[v.write_cursor++], tracer,
                       slot, &items, &ns);
    tally.Record(st, ns);
  }
}

/// One engine's slice on a single-client workload: the next kSliceOps
/// reads from the variant's cursor.
void SingleClientSlice(Bench& b, Variant& v, core::QueryContext& ctx,
                       Tracer* tracer, PhaseStats& s) {
  const std::vector<Op>& reads = b.def.reads;
  uint64_t window_ok = s.reads.ok;
  int64_t window_start = NowNs();
  for (size_t i = 0; i < kSliceOps; ++i) {
    const size_t pos = v.read_cursor[0]++ % reads.size();
    uint64_t items = 0;
    int64_t ns = 0;
    Status st = ExecOp(v, ctx, v.loaded.session.get(), reads[pos], tracer,
                       /*slot=*/0, &items, &ns);
    s.reads.Record(st, ns);
    if (st.ok()) NoteItems(v, pos, items);
    if ((i + 1) % kWindowOps == 0) {
      const int64_t now = NowNs();
      s.rates.push_back(static_cast<double>(s.reads.ok - window_ok) * 1e9 /
                        static_cast<double>(now - window_start));
      window_ok = s.reads.ok;
      window_start = now;
    }
  }
}

/// The reference store's slice on a single-client workload, measured
/// like SingleClientSlice.
void ReferenceSlice(Bench& b, std::string& mismatch, PhaseStats& s) {
  const std::vector<Op>& reads = b.def.reads;
  uint64_t window_ok = s.reads.ok;
  int64_t window_start = NowNs();
  for (size_t i = 0; i < kSliceOps; ++i) {
    const size_t pos = b.reference_cursor[0]++ % reads.size();
    int64_t ns = 0;
    const uint64_t items = ReferenceOp(b, reads[pos], &ns);
    s.reads.Record(Status::OK(), ns);
    NoteItems(b.reference_items, mismatch, pos, items);
    if ((i + 1) % kWindowOps == 0) {
      const int64_t now = NowNs();
      s.rates.push_back(static_cast<double>(s.reads.ok - window_ok) * 1e9 /
                        static_cast<double>(now - window_start));
      window_ok = s.reads.ok;
      window_start = now;
    }
  }
}

int Rounds(const Bench& b, double seconds) {
  const double slice_s = b.def.slice_ms / 1000.0;
  // The nine variants' slices and the reference store's.
  const double per_round =
      slice_s * static_cast<double>(b.variants.size() + 1);
  return std::max(1, static_cast<int>(std::lround(seconds / per_round)));
}

/// Social-rw: per slice, two reader threads (a fresh session per op) and
/// one paced writer (writes_per_slice commits through the engine's
/// GraphWriter) work on the same engine; the slice ends when the deadline
/// has passed and the writer has made its commits. In the reference
/// store's slice (index n) only the readers work. Persistent threads
/// meet the main thread at a barrier at each slice start and end.
Status ConcurrentPhase(Bench& b, int rounds, Tracer* tracer,
                       std::vector<PhaseStats>* stats, PhaseStats* reference) {
  const size_t n = b.variants.size();
  const int readers = b.def.readers;

  struct Slice {
    size_t variant = 0;
    int64_t deadline = 0;
    bool stop = false;
  } slice;
  // Per-thread tallies, merged after the join: threads never share one.
  std::vector<std::vector<PhaseStats>> local(
      static_cast<size_t>(readers) + 1, std::vector<PhaseStats>(n + 1));
  std::barrier sync(readers + 2);

  auto reader = [&](int t) {
    std::vector<core::QueryContext> ctxs(n);
    for (size_t e = 0; e < n; ++e) BindContext(b.variants[e].loaded, ctxs[e]);
    const std::vector<Op>& reads = b.def.reads;
    for (;;) {
      sync.arrive_and_wait();
      if (slice.stop) return;
      Tally& tally = local[static_cast<size_t>(t)][slice.variant].reads;
      if (slice.variant == n) {
        size_t& cursor = b.reference_cursor[static_cast<size_t>(t)];
        while (NowNs() < slice.deadline) {
          int64_t ns = 0;
          ReferenceOp(b, reads[cursor++ % reads.size()], &ns);
          tally.Record(Status::OK(), ns);
        }
        sync.arrive_and_wait();
        continue;
      }
      Variant& v = b.variants[slice.variant];
      size_t& cursor = v.read_cursor[static_cast<size_t>(t)];
      while (NowNs() < slice.deadline) {
        uint64_t items = 0;
        int64_t ns = 0;
        Status st = ExecOp(v, ctxs[slice.variant], nullptr,
                           reads[cursor++ % reads.size()], tracer, t, &items,
                           &ns);
        tally.Record(st, ns);
      }
      sync.arrive_and_wait();
    }
  };
  auto writer = [&] {
    std::vector<core::QueryContext> ctxs(n);
    for (size_t e = 0; e < n; ++e) BindContext(b.variants[e].loaded, ctxs[e]);
    for (;;) {
      sync.arrive_and_wait();
      if (slice.stop) return;
      if (slice.variant < n) {
        WriteBurst(b, b.variants[slice.variant], ctxs[slice.variant], tracer,
                   readers,
                   local[static_cast<size_t>(readers)][slice.variant].writes);
      }
      sync.arrive_and_wait();
    }
  };

  // Ops the clients completed on an engine so far; the barrier makes the
  // clients' tallies visible to this thread between slices.
  auto completed = [&local](size_t e) {
    uint64_t ok = 0;
    for (const std::vector<PhaseStats>& per_thread : local) {
      ok += per_thread[e].reads.ok + per_thread[e].writes.ok;
    }
    return ok;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) threads.emplace_back(reader, t);
  threads.emplace_back(writer);
  const int64_t slice_ns = static_cast<int64_t>(b.def.slice_ms * 1e6);
  for (int r = 0; r < rounds; ++r) {
    for (size_t k = 0; k <= n; ++k) {
      const size_t e = (static_cast<size_t>(r) + k) % (n + 1);
      const uint64_t ok = completed(e);
      slice.variant = e;
      const int64_t start = NowNs();
      slice.deadline = start + slice_ns;
      sync.arrive_and_wait();  // slice starts
      sync.arrive_and_wait();  // every client is done
      const int64_t end = NowNs();
      PhaseStats& into = e < n ? (*stats)[e] : *reference;
      into.rates.push_back(static_cast<double>(completed(e) - ok) * 1e9 /
                           static_cast<double>(end - start));
    }
  }
  slice.stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();

  for (const std::vector<PhaseStats>& per_thread : local) {
    for (size_t e = 0; e < n; ++e) {
      (*stats)[e].reads.Merge(per_thread[e].reads);
      (*stats)[e].writes.Merge(per_thread[e].writes);
    }
    reference->reads.Merge(per_thread[n].reads);
  }
  return Status::OK();
}

}  // namespace

void BindContext(core::LoadedEngine& loaded, core::QueryContext& ctx) {
  ctx.engine = loaded.engine.get();
  ctx.workload = loaded.workload.get();
  ctx.prepared = loaded.prepared.get();
  ctx.writer = loaded.writer.get();
}

Status ExecOp(Variant& v, core::QueryContext& ctx, QuerySession* session,
              const Op& op, Tracer* tracer, int slot, uint64_t* items,
              int64_t* ns) {
  if (tracer != nullptr) {
    return tracer->Exec(v, ctx, session, op, slot, items, ns);
  }
  const int64_t t0 = NowNs();
  std::unique_ptr<QuerySession> own;
  if (session == nullptr && !op.spec->mutates) {
    own = v.loaded.engine->CreateSession();
    session = own.get();
  }
  ctx.session = session;
  gdbmicro::query::ResourceGovernor governor(
      {kOpDeadline, /*memory_budget_bytes=*/0});
  ctx.cancel = governor.token();
  if (session != nullptr) session->BeginQuery();
  ctx.iteration = op.iteration;
  Result<core::QueryResult> r = op.spec->run(ctx);
  *ns = NowNs() - t0;
  *items = r.ok() ? r->items : 0;
  return r.status();
}

Status WarmUp(Bench& b) {
  for (Variant& v : b.variants) {
    core::QueryContext ctx;
    BindContext(v.loaded, ctx);
    QuerySession* session = v.loaded.session.get();  // null with a writer
    for (size_t pos = 0; pos < b.def.warmup_reads; ++pos) {
      uint64_t items = 0;
      int64_t ns = 0;
      Status st = ExecOp(v, ctx, session, b.def.reads[pos], nullptr, 0,
                         &items, &ns);
      if (st.ok()) {
        NoteItems(v, pos, items);
      } else if (!(st.IsResourceExhausted() && ModelsMemoryLimit(v.name))) {
        return Status::Internal(v.name + " warm-up op " + std::to_string(pos) +
                                " (" + b.def.reads[pos].spec->name +
                                ") failed: " + st.ToString());
      }
    }
    if (b.def.write_ops == 0) v.read_cursor[0] = b.def.warmup_reads;
  }
  std::string mismatch;
  for (size_t pos = 0; pos < b.def.warmup_reads; ++pos) {
    int64_t ns = 0;
    NoteItems(b.reference_items, mismatch, pos,
              ReferenceOp(b, b.def.reads[pos], &ns));
  }
  if (b.def.write_ops == 0) b.reference_cursor[0] = b.def.warmup_reads;
  return Status::OK();
}

void PlanWrites(Bench& b, double seconds) {
  const int rounds = Rounds(b, seconds);
  b.writes_per_slice = (b.def.write_ops + rounds - 1) / rounds;
}

Status RunPhase(Bench& b, double seconds, Tracer* tracer,
                std::vector<PhaseStats>* stats, PhaseStats* reference) {
  const size_t n = b.variants.size();
  stats->assign(n, PhaseStats{});
  *reference = PhaseStats{};
  if (b.def.write_ops > 0) {
    const int rounds = Rounds(b, seconds);
    const size_t need =
        b.variants[0].write_cursor +
        static_cast<size_t>(rounds) * static_cast<size_t>(b.writes_per_slice);
    if (b.writes.size() < need) {
      b.writes = WriteStream(*b.variants[0].loaded.workload, need);
    }
    return ConcurrentPhase(b, rounds, tracer, stats, reference);
  }

  std::vector<core::QueryContext> ctxs(n);
  for (size_t e = 0; e < n; ++e) BindContext(b.variants[e].loaded, ctxs[e]);
  std::string mismatch;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t r = 0; NowNs() < end; ++r) {
    for (size_t k = 0; k < n; ++k) {
      const size_t e = (r + k) % n;
      SingleClientSlice(b, b.variants[e], ctxs[e], tracer, (*stats)[e]);
    }
    ReferenceSlice(b, mismatch, *reference);
  }
  if (!mismatch.empty()) {
    return Status::Internal("reference store: " + mismatch);
  }
  return Status::OK();
}

std::string CheckAgreement(const Bench& b) {
  for (const Variant& v : b.variants) {
    if (!v.mismatch.empty()) return v.name + ": " + v.mismatch;
  }
  for (size_t pos = 0; pos < b.def.reads.size(); ++pos) {
    const Op& op = b.def.reads[pos];
    const std::string where = op.spec->name + " (iteration " +
                              std::to_string(op.iteration) + "): ";
    const uint64_t expected = b.reference_items[pos];
    if (expected != kUnset) {
      for (const Variant& v : b.variants) {
        if (v.items[pos] != kUnset && v.items[pos] != expected) {
          return where + "the reference store returned " +
                 std::to_string(expected) + " items, " + v.name +
                 " returned " + std::to_string(v.items[pos]);
        }
      }
    }
    const Variant* first = nullptr;
    for (const Variant& v : b.variants) {
      if (v.items[pos] == kUnset) continue;
      if (first == nullptr) {
        first = &v;
      } else if (v.items[pos] != first->items[pos]) {
        return where + first->name + " returned " +
               std::to_string(first->items[pos]) + " items, " + v.name +
               " returned " + std::to_string(v.items[pos]);
      }
    }
  }
  return "";
}

namespace {

struct FinalState {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t failed_writes = 0;
  uint64_t wal_bytes = 0;
  uint64_t memory_bytes = 0;

  bool operator==(const FinalState&) const = default;
  std::string ToString() const {
    return "V=" + std::to_string(vertices) + " E=" + std::to_string(edges) +
           " failed_writes=" + std::to_string(failed_writes) +
           " wal_bytes=" + std::to_string(wal_bytes) +
           " bytes=" + std::to_string(memory_bytes);
  }
};

Result<FinalState> StateOf(const core::LoadedEngine& loaded,
                           uint64_t failed_writes) {
  FinalState s;
  std::unique_ptr<QuerySession> session = loaded.engine->CreateSession();
  gdbmicro::CancelToken token;
  GDB_ASSIGN_OR_RETURN(s.vertices, loaded.engine->CountVertices(*session, token));
  GDB_ASSIGN_OR_RETURN(s.edges, loaded.engine->CountEdges(*session, token));
  s.failed_writes = failed_writes;
  s.wal_bytes = loaded.writer->wal().bytes_logged();
  s.memory_bytes = loaded.engine->MemoryBytes();
  return s;
}

}  // namespace

std::string CheckWriteDeterminism(Bench& b,
                                  const std::vector<uint64_t>& failed_writes) {
  // Q.18 and Q.19 delete Workload::DeleteVertex/DeleteEdge(1800/1900 +
  // iteration), drawn from the dataset's reserved tail pool: every victim
  // must be distinct, or the stream has wrapped its pool and deletes
  // elements that later ops expect.
  const gdbmicro::datasets::Workload& picker = *b.variants[0].loaded.workload;
  std::set<gdbmicro::VertexId> vertex_victims;
  std::set<gdbmicro::EdgeId> edge_victims;
  for (size_t k = 0; k < b.variants[0].write_cursor; ++k) {
    const Op& op = b.writes[k];
    const bool fresh =
        op.spec->number == 18
            ? vertex_victims.insert(picker.DeleteVertex(1800 + op.iteration))
                  .second
        : op.spec->number == 19
            ? edge_victims.insert(picker.DeleteEdge(1900 + op.iteration)).second
            : true;
    if (!fresh) {
      return op.spec->name + " at iteration " + std::to_string(op.iteration) +
             " repeats a victim: the write stream wraps its deletion pool";
    }
  }
  core::Runner runner(b.options);
  std::string problem;
  for (size_t e = 0; e < b.variants.size(); ++e) {
    Variant& v = b.variants[e];
    Result<FinalState> run = StateOf(v.loaded, failed_writes[e]);
    if (!run.ok()) return v.name + ": " + run.status().ToString();

    // Replay the same writes alone on a fresh load of the same data.
    Result<core::LoadedEngine> fresh = runner.Load(v.name, b.data);
    if (!fresh.ok()) return v.name + " reload: " + fresh.status().ToString();
    fresh->session.reset();
    Variant replay;
    replay.name = v.name;
    replay.loaded = std::move(*fresh);
    core::QueryContext ctx;
    BindContext(replay.loaded, ctx);
    uint64_t replay_failed = 0;
    for (size_t k = 0; k < v.write_cursor; ++k) {
      uint64_t items = 0;
      int64_t ns = 0;
      if (!ExecOp(replay, ctx, nullptr, b.writes[k], nullptr, 0, &items, &ns)
               .ok()) {
        ++replay_failed;
      }
    }
    Result<FinalState> alone = StateOf(replay.loaded, replay_failed);
    if (!alone.ok()) return v.name + ": " + alone.status().ToString();
    std::printf("final %-9s writes=%zu %s\n", v.name.c_str(), v.write_cursor,
                run->ToString().c_str());
    if (!(*run == *alone) && problem.empty()) {
      problem = v.name + " write outcome depends on the run: with readers " +
                run->ToString() + ", replayed alone " + alone->ToString();
    }
  }
  return problem;
}

Result<std::vector<double>> BytesPerElement(const Bench& b) {
  std::vector<double> out;
  for (const Variant& v : b.variants) {
    std::unique_ptr<QuerySession> session = v.loaded.engine->CreateSession();
    gdbmicro::CancelToken token;
    GDB_ASSIGN_OR_RETURN(uint64_t nv,
                         v.loaded.engine->CountVertices(*session, token));
    GDB_ASSIGN_OR_RETURN(uint64_t ne,
                         v.loaded.engine->CountEdges(*session, token));
    out.push_back(static_cast<double>(v.loaded.engine->MemoryBytes()) /
                  static_cast<double>(std::max<uint64_t>(1, nv + ne)));
  }
  return out;
}

}  // namespace perfbench
