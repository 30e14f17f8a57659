// Workload definitions, set-up and the small statistics helpers.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <unordered_set>

#include "perfbench/src/perfbench.h"
#include "src/datasets/generators.h"
#include "src/datasets/workload.h"

// Counts every heap allocation per thread, for query.allocs_per_op (the
// same global-operator-new idiom as bench/bench_micro_prepared.cc, made
// thread-local so concurrent clients do not race on it).
namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t ThreadAllocs() { return t_allocs; }

namespace {

const core::QuerySpec* Spec(int number, int variant = 0) {
  for (const core::QuerySpec& s : core::QueryCatalog()) {
    if (s.number == number && s.variant == variant) return &s;
  }
  return nullptr;
}

/// `rounds` rounds over `specs`; op i of the stream has iteration i, so
/// every op draws its own parameters.
std::vector<Op> RoundRobin(const std::vector<int>& numbers, int rounds) {
  std::vector<Op> ops;
  for (int r = 0; r < rounds; ++r) {
    for (int n : numbers) {
      ops.push_back({Spec(n), static_cast<int>(ops.size())});
    }
  }
  return ops;
}

}  // namespace

const std::vector<std::string>& EngineNames() {
  static const std::vector<std::string> names = {
      "arango", "blaze", "neo19", "neo30", "orient",
      "sparksee", "sqlg", "titan05", "titan10"};
  return names;
}

bool ModelsMemoryLimit(const std::string& engine) {
  return engine == "sparksee";
}

Result<WorkloadDef> MakeWorkload(const std::string& name) {
  WorkloadDef d;
  d.name = name;
  if (name == "lookup") {
    d.dataset = "mico";
    d.scale = 0.1;
    d.reads = RoundRobin({14, 15, 22, 23, 24, 25, 26, 27}, 8192);
    d.warmup_reads = 4096;
    // The reference store's median window rate over runs on a 4-vCPU
    // KVM host (Xeon, 2 MiB L2 per core); it ranged 490k-670k.
    d.reference_ops_per_s = 550000;
  } else if (name == "social-rw") {
    d.dataset = "ldbc";
    d.scale = 2.0;
    d.readers = 2;
    // The 6000-op write stream the neo divergence was found with (see
    // NOTES.md): its outcome on each engine is known, and its deletions
    // stay inside the ldbc scale-2 victim pools.
    d.write_ops = 6000;
    d.slice_ms = 50;
    d.reads = RoundRobin({14, 15, 22, 23, 24}, 4096);
    d.warmup_reads = 5120;
    // The reference store's median slice rate, two readers, on the same
    // host; it ranged 1.8M-2.4M.
    d.reference_ops_per_s = 2000000;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (lookup, social-rw)");
  }
  for (const Op& op : d.reads) {
    if (op.spec == nullptr) return Status::Internal("catalog spec missing");
  }
  return d;
}

std::vector<Op> WriteStream(const gdbmicro::datasets::Workload& picker,
                            size_t n) {
  static const int kNumbers[] = {2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21};
  constexpr size_t kSpecs = sizeof(kNumbers) / sizeof(kNumbers[0]);
  // Round m uses iteration 7m. Q.18/Q.19 walk their victim pool from a
  // seeded offset by iteration, so the stride spreads each seed's victims
  // over the whole pool (the ldbc pool holds tag, place and organisation
  // hubs next to posts) instead of one contiguous run of it. 7 is coprime
  // to the pool sizes here, so victims stay distinct until the pool is
  // used up (CheckWriteDeterminism verifies it).
  constexpr int kStride = 7;
  // Q.6, Q.17 and Q.21 write a property of a read-pool edge. An edge that
  // an earlier Q.18 cascade removed would make the write fail with
  // NotFound, so these three skip to their next iteration whose edge has
  // no removed endpoint. Every op of the stream then succeeds.
  const GraphData& data = picker.data();
  const std::vector<gdbmicro::VertexId>& ids = picker.mapping().vertex_ids;
  std::unordered_set<gdbmicro::VertexId> removed;
  auto edge_alive = [&](uint64_t index) {
    const auto& e = data.edges[index];
    return !removed.contains(ids[e.src]) && !removed.contains(ids[e.dst]);
  };
  auto edge_base = [](int number) {
    return number == 6 ? 600 : number == 17 ? 1700 : number == 21 ? 2100 : -1;
  };
  std::vector<int> rounds(kSpecs, 0);  // next round per spec
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const int number = kNumbers[k % kSpecs];
    int& round = rounds[k % kSpecs];
    int iteration = kStride * round++;
    if (const int base = edge_base(number); base >= 0) {
      while (!edge_alive(picker.ReadEdgeIndex(base + iteration))) {
        iteration = kStride * round++;
      }
    }
    if (number == 18) removed.insert(picker.DeleteVertex(1800 + iteration));
    ops.push_back({Spec(number), iteration});
  }
  return ops;
}

std::vector<Op> PathProbeOps(int n) {
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    ops.push_back({Spec(32, 2), i});
    ops.push_back({Spec(33, 2), i});
    ops.push_back({Spec(34), i});
    ops.push_back({Spec(35), i});
  }
  return ops;
}

void Tally::Record(const Status& status, int64_t op_ns) {
  if (status.ok()) {
    ++ok;
    ns.push_back(static_cast<uint32_t>(
        std::clamp<int64_t>(op_ns, 0, std::numeric_limits<uint32_t>::max())));
    return;
  }
  ++failed;
  if (status.IsResourceExhausted()) ++oom;
  if (first_error.empty()) first_error = status.ToString();
}

void Tally::Merge(const Tally& other) {
  ok += other.ok;
  failed += other.failed;
  oom += other.oom;
  ns.insert(ns.end(), other.ns.begin(), other.ns.end());
  if (first_error.empty()) first_error = other.first_error;
}

Status SetUp(Bench& b, int reps) {
  const std::vector<std::string>& names = EngineNames();
  b.load_s.assign(names.size(), {});
  for (int rep = 0; rep < reps; ++rep) {
    b.variants.clear();  // frees the previous repetition's set
    const int64_t t0 = NowNs();
    // The graph is fixed per workload (the generator's default seed); the
    // run's seed draws every op parameter through the Workload picker.
    gdbmicro::datasets::GenOptions gen;
    gen.scale = b.def.scale;
    GDB_ASSIGN_OR_RETURN(GraphData data,
                         gdbmicro::datasets::GenerateByName(b.def.dataset, gen));
    const int64_t t1 = NowNs();
    // Every repetition generates the same graph; the variants of all
    // repetitions load (and keep pointing at) the first one.
    if (rep == 0) b.data = std::move(data);
    core::Runner runner(b.options);
    double stats_s = 0;
    for (size_t i = 0; i < names.size(); ++i) {
      Variant v;
      v.name = names[i];
      const int64_t l0 = NowNs();
      GDB_ASSIGN_OR_RETURN(v.loaded, runner.Load(v.name, b.data));
      b.load_s[i].push_back(static_cast<double>(NowNs() - l0) / 1e9);
      stats_s += v.loaded.engine->load_stats().stats_build_millis / 1000.0;
      b.variants.push_back(std::move(v));
    }
    b.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    b.generate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    b.stats_build_s.push_back(stats_s);
  }
  for (Variant& v : b.variants) {
    // A long-lived session pins its epoch and would stall every commit
    // to its engine: with a writer, each read runs on a session of its own.
    if (b.def.write_ops > 0) v.loaded.session.reset();
    v.read_cursor.assign(static_cast<size_t>(b.def.readers), 0);
    for (int t = 0; t < b.def.readers; ++t) {
      v.read_cursor[static_cast<size_t>(t)] =
          b.def.reads.size() * static_cast<size_t>(t) /
          static_cast<size_t>(b.def.readers);
    }
    v.items.assign(b.def.reads.size(), kUnset);
  }
  b.reference = std::make_unique<Reference>(b.data,
                                            *b.variants[0].loaded.workload);
  b.reference_cursor = b.variants[0].read_cursor;
  b.reference_items.assign(b.def.reads.size(), kUnset);
  return Status::OK();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
