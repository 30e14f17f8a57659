// perfbench: the repository benchmark. One process runs one workload on
// all nine engine variants, interleaved in short slices, and prints
// its metrics (see ../NOTES.md for the workloads and why they exist).
//
// Everything here drives the library from outside, through the same
// public calls core::Runner makes. Layer timings (trace.cc) come from
// re-executing an op's work at each lower layer's public entry point.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/queries.h"
#include "src/core/runner.h"
#include "src/graph/graph_data.h"

namespace perfbench {

using gdbmicro::GraphData;
using gdbmicro::Result;
using gdbmicro::Status;
namespace core = gdbmicro::core;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made so far by the calling thread (the global
/// operator new of this binary counts them).
uint64_t ThreadAllocs();

/// One operation of a stream: a catalog query and the iteration index
/// its parameters are drawn with.
struct Op {
  const core::QuerySpec* spec = nullptr;
  int iteration = 0;
};

/// A workload: dataset, clients and op streams. Fixed per name; the
/// seed only enters through the parameter picker.
struct WorkloadDef {
  std::string name;
  std::string dataset;
  double scale = 0;
  int readers = 1;  // reader client threads
  // Commits per engine and run by a writer thread that works alongside
  // the readers; 0 = no writer (the reads see a fixed graph).
  int write_ops = 0;
  double slice_ms = 0;  // engine slice length with a writer
  std::vector<Op> reads;  // cyclic read stream
  size_t warmup_reads = 0;
  // The reference store's throughput on this workload at the nominal
  // host speed (see Reference and NOTES.md, "Noise").
  double reference_ops_per_s = 0;
};

Result<WorkloadDef> MakeWorkload(const std::string& name);

/// The catalog's create/update/delete stream, round-robin over Q2-Q7 and
/// Q16-Q21 (the first `n` ops; a longer stream extends a shorter one),
/// with parameters from `picker`. No op of it fails.
std::vector<Op> WriteStream(const gdbmicro::datasets::Workload& picker,
                            size_t n);

/// `n` rounds of Q32(d=2), Q33(d=2), Q34 and Q35: the path layers' probe
/// (no read stream has a path op). With an index built, the label-free
/// half takes the index route and the rest the frontier search.
std::vector<Op> PathProbeOps(int n);

/// The nine engine variants every workload runs.
const std::vector<std::string>& EngineNames();

/// True for the variant whose working-memory exhaustion is a modelled
/// outcome (sparksee): its kResourceExhausted failures count against
/// completed_ratio instead of failing the run.
bool ModelsMemoryLimit(const std::string& engine);

/// Latency samples and outcomes of one class of ops on one engine.
struct Tally {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t oom = 0;  // subset of failed
  std::vector<uint32_t> ns;
  std::string first_error;

  void Record(const Status& status, int64_t ns);
  void Merge(const Tally& other);
};

/// One timed phase's figures for one engine.
struct PhaseStats {
  // Completed ops per second over each measurement window: 256
  // consecutive ops in a single-client slice, or a whole slice with a
  // writer (reads plus the writer's commits). Their median is the
  // engine's throughput: on mico one op over the largest hub can take a
  // second on titan, and how often a seed draws it would swing a mean
  // over the whole phase.
  std::vector<double> rates;
  Tally reads;
  Tally writes;
};

/// The reference store: the read ops of a workload (Q14, Q15, Q22-Q27)
/// answered from plain adjacency lists and hash indexes that belong to
/// the benchmark, over the same dataset and parameters. It runs as a
/// tenth slot in every round of a timed phase. Library changes cannot
/// change its speed, the host's drift does: its throughput over a run,
/// against its nominal figure, is the speed the host gave that run, and
/// the timing metrics are scaled by it. Its answers are checked against
/// the engines' like a tenth variant's.
class Reference {
 public:
  Reference(const GraphData& data, const gdbmicro::datasets::Workload& picker);
  /// Runs a read op; returns its item count.
  uint64_t Run(const Op& op) const;

 private:
  struct Vertex {
    std::string label;
    std::vector<uint32_t> out, in;  // edge indexes
  };
  struct Edge {
    uint32_t src, dst;
    std::string label;
  };
  static uint64_t HashKey(uint64_t index);

  const gdbmicro::datasets::Workload& picker_;
  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  std::unordered_map<uint64_t, uint32_t> vertex_index_, edge_index_;
};

/// A loaded engine variant and its per-run bookkeeping.
struct Variant {
  std::string name;
  core::LoadedEngine loaded;
  // Stream cursors, per reader thread and for the writer.
  std::vector<size_t> read_cursor;
  size_t write_cursor = 0;
  // Item count first observed at each read-stream position by the
  // warm-up and the single-client phases; kUnset until the position ran.
  std::vector<uint64_t> items;
  std::string mismatch;  // first read whose count changed on re-run
};

constexpr uint64_t kUnset = ~uint64_t{0};

/// Deadline armed on every op's governor (no op comes near it).
constexpr std::chrono::nanoseconds kOpDeadline = std::chrono::seconds(10);

/// Everything one run holds: the dataset, the nine variants, the options.
struct Bench {
  WorkloadDef def;
  core::RunnerOptions options;  // workload_seed is the run's seed
  GraphData data;
  std::vector<Variant> variants;
  std::vector<Op> writes;   // the write stream of this run
  int writes_per_slice = 0;  // the writer's commits per engine slice
  // Set-up figures, one entry per set-up repetition.
  std::vector<double> setup_s, generate_s, stats_build_s;
  std::vector<std::vector<double>> load_s;  // [variant][rep]
  // The reference store, with stream cursors and item counts kept as a
  // Variant keeps them.
  std::unique_ptr<Reference> reference;
  std::vector<size_t> reference_cursor;
  std::vector<uint64_t> reference_items;
};

class Tracer;

/// Generates the dataset and loads the nine variants `reps` times, timing
/// each repetition, and keeps the last set.
Status SetUp(Bench& b, int reps);

/// Spreads the workload's write_ops evenly over the engine slices of a
/// run of `seconds` (sets b.writes_per_slice).
void PlanWrites(Bench& b, double seconds);

/// Points `ctx` at `loaded`'s engine, parameter picker, plan cache and
/// writer.
void BindContext(core::LoadedEngine& loaded, core::QueryContext& ctx);

/// Runs `op` the way core::Runner does: a fresh ResourceGovernor, then
/// QuerySession::BeginQuery (when `session` is set), then QuerySpec::run.
/// A read with no `session` runs on a session created for the op. With a
/// tracer, records the op's spans under client `slot` and re-executes it
/// at the lower layers (trace.cc). Returns the op's status; `items` receives
/// the result count and `ns` the op's latency.
Status ExecOp(Variant& v, core::QueryContext& ctx,
              gdbmicro::QuerySession* session, const Op& op, Tracer* tracer,
              int slot, uint64_t* items, int64_t* ns);

/// Runs each variant's and the reference store's read warm-up (untimed,
/// single client).
Status WarmUp(Bench& b);

/// Runs one timed phase of about `seconds`, engines interleaved in
/// slices. A single-client workload gives every engine the same number
/// of ops per slice and runs rounds until `seconds` have passed. With a
/// writer, slices last def.slice_ms and the number of rounds follows
/// from `seconds` alone, so the write stream (writes_per_slice per
/// slice) has a fixed length. Every round also gives the reference store
/// a slice of the same kind (untraced, no writer). Fills one PhaseStats
/// per variant, and `reference` with the reference store's.
Status RunPhase(Bench& b, double seconds, Tracer* tracer,
                std::vector<PhaseStats>* stats, PhaseStats* reference);

/// Agreement of read results (single-client workloads and warm-ups):
/// every stream position that ran on several engines returned the same
/// item count everywhere, and the reference store's where it ran there.
/// Empty string when it holds.
std::string CheckAgreement(const Bench& b);

/// Replays the writes each variant committed during the run on a fresh
/// load, single-threaded, and compares final vertex/edge counts, failed
/// writes, WAL bytes and resident bytes. Prints per-engine final counts.
/// Also requires that no deletion stream wrapped its victim pool. Empty
/// string when every check holds.
std::string CheckWriteDeterminism(Bench& b,
                                  const std::vector<uint64_t>& failed_writes);

/// Resident bytes per live element, per variant.
Result<std::vector<double>> BytesPerElement(const Bench& b);

/// Linear-interpolated quantile of `v` (sorted in place).
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}
double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
