// perfbench: one workload on the nine engine variants, in one process.
//
//   perfbench --workload <lookup|social-rw> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--git-sha <sha>] [--src-sha <sha>]
//
// Prints the run's fingerprint, a per-engine table and every metric by
// name with its unit. The last line of stdout is the JSON result
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness gate fails (the result still prints, with correct=false)
// and 2 when the run cannot start.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "perfbench/src/perfbench.h"
#include "perfbench/src/trace.h"
#include "src/graph/writer.h"
#include "src/util/cancel.h"

namespace perfbench {
namespace {

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 7;
// Rounds of the path probe (no read stream has path ops).
constexpr int kPathProbeRounds = 8;
// ScanVertices + ScanEdges passes of the scan probe.
constexpr int kScanPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
      if (!have_seed) return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return false;
      }
      a->trace = val[0] == '1';
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else if (key == "--git-sha") {
      a->git_sha = val;
    } else if (key == "--src-sha") {
      a->src_sha = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed && a->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The percentile reported as a tail on `n` samples: the highest one
/// with at least ten samples beyond it, p99 where the sample allows.
double TailQuantile(size_t n) {
  if (n >= 1000) return 0.99;
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(std::max<size_t>(n, 1)));
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintFingerprint(const Args& a, const Bench& b) {
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"git_sha\":\"%s\",\"src_sha256\":\"%s\",\"cost_model\":\"off\","
      "\"statistics\":\"on\",\"path_index\":\"off\",\"dataset\":\"%s\","
      "\"scale\":%s,\"engines\":%zu}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      JsonNumber(a.seconds).c_str(), a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, a.git_sha.c_str(), a.src_sha.c_str(),
      b.def.dataset.c_str(),
      JsonNumber(b.def.scale).c_str(), EngineNames().size());
}

int Run(const Args& a) {
  Result<WorkloadDef> def = MakeWorkload(a.workload);
  if (!def.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", def.status().ToString().c_str());
    return 2;
  }
  Bench b;
  b.def = std::move(*def);
  b.options.enable_cost_model = false;
  b.options.collect_statistics = true;
  b.options.workload_seed = a.seed;
  PrintFingerprint(a, b);
  std::fflush(stdout);

  auto fail = [](const char* stage, const Status& st) {
    std::fprintf(stderr, "perfbench: %s: %s\n", stage, st.ToString().c_str());
    return 2;
  };
  // Wall time of each stage of the run, printed before the result.
  std::vector<std::pair<const char*, int64_t>> stages = {{"start", NowNs()}};
  auto stage = [&stages](const char* name) { stages.push_back({name, NowNs()}); };
  if (Status st = SetUp(b, kSetupReps); !st.ok()) return fail("set-up", st);
  stage("setup");
  std::printf("setup reps s:");
  for (double s : b.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  PlanWrites(b, a.seconds);
  if (Status st = WarmUp(b); !st.ok()) return fail("warm-up", st);
  stage("warmup");
  const size_t n = b.variants.size();
  const bool writer = b.def.write_ops > 0;
  std::vector<std::string> problems;
  // The footprint of the loaded graph. After social-rw's writes, bytes
  // per live element depend on which hubs the seed's deletions removed
  // (final edge counts differ by up to 12 % between seeds, and most
  // engines keep the memory of what was deleted); the final bytes are
  // checked against the replay instead.
  Result<std::vector<double>> bytes = BytesPerElement(b);
  if (!bytes.ok()) return fail("bytes", bytes.status());

  // --- timed phases -------------------------------------------------------
  std::vector<PhaseStats> timed, traced;
  PhaseStats reference, traced_reference;
  std::unique_ptr<Tracer> tracer;
  const double timed_s = a.trace ? a.seconds / 2 : a.seconds;
  if (Status st = RunPhase(b, timed_s, nullptr, &timed, &reference);
      !st.ok()) {
    return fail("timed phase", st);
  }
  if (a.trace) {
    tracer = std::make_unique<Tracer>(b, b.def.readers + 1);
    if (Status st = RunPhase(b, a.seconds / 2, tracer.get(), &traced,
                             &traced_reference);
        !st.ok()) {
      return fail("traced phase", st);
    }
  }
  stage("phases");

  // --- read gates ---------------------------------------------------------
  if (std::string s = CheckAgreement(b); !s.empty()) {
    problems.push_back("read results differ: " + s);
  }
  if (!writer) {
    Result<std::vector<double>> after = BytesPerElement(b);
    if (!after.ok()) return fail("bytes", after.status());
    if (*after != *bytes) {
      problems.push_back("bytes_per_elem changed during a read-only run");
    }
  }
  for (const std::vector<PhaseStats>* phase : {&timed, &traced}) {
    for (size_t e = 0; e < phase->size(); ++e) {
      const Tally& r = (*phase)[e].reads;
      // sparksee's modelled working-memory exhaustion is an outcome, not
      // a defect: it counts against completed_ratio only.
      if (r.failed > (ModelsMemoryLimit(b.variants[e].name) ? r.oom : 0)) {
        problems.push_back(b.variants[e].name + " read failed: " +
                           r.first_error);
      }
    }
  }

  // --- per-layer probes before the write checks -------------------------
  // Counters that must repeat: two passes over the same ops, compared.
  auto count_twice = [&](Variant& v, const std::vector<Op>& ops,
                         Counters* out) -> Status {
    Result<Counters> first = CountPass(v, ops, writer);
    Result<Counters> second = CountPass(v, ops, writer);
    if (!first.ok()) return first.status();
    if (!second.ok()) return second.status();
    if (!(*first == *second)) {
      problems.push_back(v.name + ": counters did not repeat on one seed");
    }
    *out = *first;
    return Status::OK();
  };
  // Allocations and plan rows over the stream's first ops; path-search
  // work over the path probe below.
  std::vector<Counters> counters(n), path_counters(n);
  std::vector<double> scan_ns(n);
  if (a.trace) {
    const std::vector<Op> sample(
        b.def.reads.begin(),
        b.def.reads.begin() + static_cast<std::ptrdiff_t>(b.def.warmup_reads));
    for (size_t e = 0; e < n; ++e) {
      Variant& v = b.variants[e];
      if (Status st = count_twice(v, sample, &counters[e]); !st.ok()) {
        return fail("counter pass", st);
      }
      Result<double> scan = ScanNsPerElement(v, kScanPasses);
      if (!scan.ok()) return fail("scan probe", scan.status());
      scan_ns[e] = *scan;
    }
  }

  stage("read_checks");

  // --- write determinism ----------------------------------------------------
  if (writer) {
    std::vector<uint64_t> failed_writes(n);
    for (size_t e = 0; e < n; ++e) {
      failed_writes[e] =
          timed[e].writes.failed + (a.trace ? traced[e].writes.failed : 0);
    }
    if (std::string s = CheckWriteDeterminism(b, failed_writes); !s.empty()) {
      problems.push_back(s);
    }
  }

  stage("write_checks");

  // --- per-layer probes after the writes ------------------------------------
  // The path probe has a tracer of its own, so its ops stay out of the
  // workload's per-engine layer figures.
  std::vector<double> wal_log_us(n);
  double index_build_s = 0;
  std::unique_ptr<Tracer> probe;
  if (a.trace) {
    probe = std::make_unique<Tracer>(b, 1);
    const std::vector<Op> path_probe = PathProbeOps(kPathProbeRounds);
    for (size_t e = 0; e < n; ++e) {
      Variant& v = b.variants[e];
      if (writer) {
        Result<double> log_us = StandaloneWalLogUs(v);
        if (!log_us.ok()) return fail("wal probe", log_us.status());
        wal_log_us[e] = *log_us;
      }
      // The index is not part of any workload's set-up: time one build
      // over the final snapshot, then probe the path layers on both routes.
      v.loaded.session.reset();
      const int64_t t0 = NowNs();
      Status st = v.loaded.engine->BuildPathIndex(gdbmicro::CancelToken());
      index_build_s += static_cast<double>(NowNs() - t0) / 1e9;
      if (!st.ok()) return fail("index probe", st);
      if (Status cs = count_twice(v, path_probe, &path_counters[e]); !cs.ok()) {
        return fail("path counter pass", cs);
      }
      std::unique_ptr<gdbmicro::QuerySession> session =
          v.loaded.engine->CreateSession();
      core::QueryContext ctx;
      BindContext(v.loaded, ctx);
      for (const Op& op : path_probe) {
        uint64_t items = 0;
        int64_t ns = 0;
        Status ps = ExecOp(v, ctx, session.get(), op, probe.get(), 0, &items,
                           &ns);
        if (!ps.ok()) problems.push_back(v.name + " path probe: " + ps.ToString());
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(a.out_dir, ec);
    const std::string stem =
        a.out_dir + "/" + b.def.name + "-" + std::to_string(a.seed);
    for (const auto& [path, t] :
         {std::pair{stem + "-trace.jsonl", tracer.get()},
          std::pair{stem + "-path-probe.jsonl", probe.get()}}) {
      Result<size_t> spans = t->WriteSpans(path);
      if (!spans.ok()) return fail("spans", spans.status());
      std::printf("spans %zu written to %s\n", *spans, path.c_str());
    }
  }

  stage("probes");

  // --- per-engine figures ----------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ops_ps(n), traced_ops_ps(n), p50(n), tail(n);
  // Reads is the latency sample size; the w_ columns are the writer's
  // commit ops (social-rw) and their share of all completed ops.
  std::printf("%-9s %8s %12s %10s %10s %9s %10s %10s %8s %7s %5s\n",
              "engine", "load_s", "ops_per_s", "p50_us", "tail_us", "reads",
              "w_p50_us", "w_tail_us", "w_share", "failed", "oom");
  for (size_t e = 0; e < n; ++e) {
    PhaseStats& s = timed[e];
    Tally& w = s.writes;
    ops_ps[e] = Median(s.rates);
    if (a.trace) traced_ops_ps[e] = Median(traced[e].rates);
    p50[e] = Quantile(s.reads.ns, 0.5) / 1e3;
    tail[e] = Quantile(s.reads.ns, TailQuantile(s.reads.ns.size())) / 1e3;
    uint64_t engine_failed = 0;
    uint64_t engine_oom = 0;
    for (const std::vector<PhaseStats>* phase : {&timed, &traced}) {
      if (phase->empty()) continue;
      for (const Tally* t : {&(*phase)[e].reads, &(*phase)[e].writes}) {
        attempted += t->ok + t->failed;
        engine_failed += t->failed;
        engine_oom += t->oom;
      }
    }
    failed += engine_failed;
    std::printf(
        "%-9s %8.3f %12.1f %10.3f %10.3f %9zu %10.3f %10.3f %8.5f %7llu %5llu\n",
        b.variants[e].name.c_str(), Median(b.load_s[e]), ops_ps[e], p50[e],
        tail[e], s.reads.ns.size(), Quantile(w.ns, 0.5) / 1e3,
        Quantile(w.ns, TailQuantile(w.ns.size())) / 1e3,
        Ratio(static_cast<double>(w.ok),
              static_cast<double>(s.reads.ok + w.ok)),
        static_cast<unsigned long long>(engine_failed),
        static_cast<unsigned long long>(engine_oom));
  }
  std::vector<uint32_t>& ref_ns = reference.reads.ns;
  std::printf("%-9s %8s %12.1f %10.3f %10.3f %9zu\n", "reference", "-",
              Median(reference.rates), Quantile(ref_ns, 0.5) / 1e3,
              Quantile(ref_ns, TailQuantile(ref_ns.size())) / 1e3,
              ref_ns.size());

  // The host's speed over the timed phase: the reference store's
  // throughput against its nominal figure (see Reference). The timing
  // metrics are the engines' figures scaled to the nominal speed:
  // throughput divided by it, latency multiplied by it. The table above
  // and the raw line below give them unscaled.
  const double host = Median(reference.rates) / b.def.reference_ops_per_s;
  std::printf("host speed %.4f (reference %.1f ops/s, nominal %.1f)\n", host,
              Median(reference.rates), b.def.reference_ops_per_s);
  std::printf("raw ops_per_s %.6g p50_us %.6g tail_us %.6g\n",
              GeoMean(ops_ps), GeoMean(p50), GeoMean(tail));

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", Median(b.setup_s), "s"},
        {"ops_per_s", GeoMean(ops_ps) / host, "1/s"},
        {"p50_us", GeoMean(p50) * host, "us"},
        {"tail_us", GeoMean(tail) * host, "us"},
        {"completed_ratio",
         Ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "ratio"},
        {"bytes_per_elem", GeoMean(*bytes), "B"},
    };
  } else {
    std::vector<double> op_self, governor, plan_self, allocs, rows, bfs, sp,
        sp_expanded, index_ratio, commit_p50, commit_tail, wal_bytes,
        wal_flushes, session_p50, session_tail;
    for (size_t e = 0; e < n; ++e) {
      const Variant& v = b.variants[e];
      Tracer::Layers l = tracer->Total(e);
      const Tracer::Layers paths = probe->Total(e);
      const Counters& c = counters[e];
      const Counters& pc = path_counters[e];
      const std::string prefix = "engines." + v.name + ".";
      metrics.push_back({prefix + "lookup_ns", Quantile(l.lookup_ns, 0.5), "ns"});
      metrics.push_back(
          {prefix + "adjacency_ns_per_edge",
           Ratio(l.adjacency_ns, static_cast<double>(l.adjacency_edges)),
           "ns"});
      metrics.push_back({prefix + "scan_ns_per_elem", scan_ns[e], "ns"});
      metrics.push_back({prefix + "load_s", Median(b.load_s[e]), "s"});
      metrics.push_back({prefix + "bytes_per_elem", (*bytes)[e], "B"});
      metrics.push_back({prefix + "ops_per_s", ops_ps[e] / host, "1/s"});
      op_self.push_back(Quantile(l.op_self_ns, 0.5) / 1e3);
      governor.push_back(Quantile(l.governor_ns, 0.5));
      plan_self.push_back(Quantile(l.plan_self_ns, 0.5) / 1e3);
      allocs.push_back(Ratio(static_cast<double>(c.allocs),
                             static_cast<double>(c.ops)));
      rows.push_back(Ratio(static_cast<double>(c.rows),
                           static_cast<double>(std::max<uint64_t>(1, c.results))));
      bfs.push_back(Ratio(paths.bfs_ns, static_cast<double>(std::max<uint64_t>(
                                            1, paths.bfs_expanded))));
      sp.push_back(Ratio(paths.sp_ns, static_cast<double>(std::max<uint64_t>(
                                          1, paths.sp_expanded))));
      sp_expanded.push_back(Ratio(static_cast<double>(pc.sp_expanded),
                                  static_cast<double>(pc.sp_ops)));
      index_ratio.push_back(Ratio(static_cast<double>(pc.index_answers),
                                  static_cast<double>(pc.path_ops)));
      commit_p50.push_back(Quantile(l.commit_ns, 0.5) / 1e3);
      commit_tail.push_back(
          Quantile(l.commit_ns, TailQuantile(l.commit_ns.size())) / 1e3);
      const gdbmicro::Wal& wal = v.loaded.writer->wal();
      wal_bytes.push_back(Ratio(static_cast<double>(wal.bytes_logged()),
                                static_cast<double>(wal.commits_logged())));
      wal_flushes.push_back(Ratio(static_cast<double>(wal.flushes()),
                                  static_cast<double>(wal.commits_logged())));
      session_p50.push_back(Quantile(l.session_ns, 0.5));
      session_tail.push_back(
          Quantile(l.session_ns, TailQuantile(l.session_ns.size())));
    }
    // Layer figures of the whole stack: the mean over the nine variants.
    std::vector<Metric> layers = {
        {"core.op_self_us", Mean(op_self), "us"},
        {"query.governor_ns", Mean(governor), "ns"},
        {"query.plan_self_us", Mean(plan_self), "us"},
        {"query.allocs_per_op", Mean(allocs), "count"},
        {"query.rows_per_result", Mean(rows), "count"},
        {"query.bfs_ns_per_expanded", Mean(bfs), "ns"},
        {"query.sp_ns_per_expanded", Mean(sp), "ns"},
        {"query.sp_expanded_per_query", Mean(sp_expanded), "count"},
        {"query.index_answer_ratio", Mean(index_ratio), "ratio"},
        {"graph.path_index_build_s", index_build_s, "s"},
        {"graph.statistics_build_s", Median(b.stats_build_s), "s"},
        {"graph.writer.commit_p50_us", Mean(commit_p50), "us"},
        {"graph.writer.commit_tail_us", Mean(commit_tail), "us"},
        {"graph.writer.wal_bytes_per_commit", Mean(wal_bytes), "B"},
        {"graph.writer.wal_flushes_per_commit", Mean(wal_flushes), "count"},
        {"storage.wal.log_us", Mean(wal_log_us), "us"},
        {"graph.epoch.session_create_p50_ns", Mean(session_p50), "ns"},
        {"graph.epoch.session_create_tail_ns", Mean(session_tail), "ns"},
        {"datasets.generate_s", Median(b.generate_s), "s"},
        // Each phase's throughput at the nominal host speed.
        {"trace.overhead_ratio",
         Ratio(GeoMean(ops_ps) / host,
               GeoMean(traced_ops_ps) * b.def.reference_ops_per_s /
                   Median(traced_reference.rates)),
         "ratio"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }

  stage("figures");
  std::printf("stage seconds:");
  for (size_t i = 1; i < stages.size(); ++i) {
    std::printf(" %s %.2f", stages[i].first,
                static_cast<double>(stages[i].second - stages[i - 1].second) / 1e9);
  }
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("correctness violation: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <lookup|social-rw> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-sha <sha>] [--src-sha <sha>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
