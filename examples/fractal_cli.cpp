// fractal_cli: run a GPM kernel on a graph file from the command line.
//
//   fractal_cli --kernel triangles --graph youtube.graph
//   fractal_cli --kernel cliques --k 4 --workers 2 --threads 4 --edgelist g.txt
//   fractal_cli --kernel motifs --k 3 --graph mico.graph
//   fractal_cli --kernel fsm --support 100 --max-edges 3 --graph labeled.graph
//   fractal_cli --kernel query --query diamond --graph g.graph
//
// --graph expects the adjacency-list format (see graph/graph_io.h);
// --edgelist expects SNAP-style "u v" lines. Without either, a synthetic
// demo graph is generated.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "core/context.h"
#include "core/executor.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "pattern/catalog.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"
#include "runtime/query_scheduler.h"
#include "util/timer.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: fractal_cli --kernel "
      "<triangles|cliques|motifs|fsm|query|stats>\n"
      "       [--graph <adjacency-list file> | --edgelist <snap file>]\n"
      "       [--k <size>] [--support <min support>] [--max-edges <n>]\n"
      "       [--query <triangle|square|diamond|house|q1..q8>]\n"
      "       [--workers <n>] [--threads <n>] [--no-stealing]\n"
      "       [--trace-out <chrome-trace.json>] [--metrics]\n"
      "       [--metricsz-out <prometheus.txt>]\n"
      "       [--profile-out <collapsed.txt>] [--profile-hz <rate>]\n"
      "       [--statusz-port <port>] [--progress-ms <interval>]\n"
      "       [--fault-spec <plan>] [--fault-seed <n>]\n"
      "       [--crash-worker <w>] [--crash-after <units>]\n"
      "       [--retry-mode <scratch|salvage>]\n"
      "       [--concurrency <n>] [--deadline-ms <ms>]\n"
      "\n"
      "concurrent queries (DESIGN.md section 12):\n"
      "  --concurrency runs n copies of the kernel as concurrent queries on\n"
      "  one shared cluster (triangles, cliques and query kernels only);\n"
      "  --deadline-ms bounds each query's wall time, alone (synchronous\n"
      "  deadline-aware run) or per query under --concurrency.\n"
      "\n"
      "fault injection (see runtime/fault.h):\n"
      "  --fault-spec takes ';'-separated entries, e.g.\n"
      "    'crash:w=1,after=50' 'crash:w=1,p=0.001' 'crash-service:w=0,"
      "after=3'\n"
      "    'drop:p=0.05' 'delay:p=0.1,us=5000' 'slow:w=1,us=20'\n"
      "    'crash-in-salvage:w=1,after=10' (fires during salvage replay)\n"
      "  --crash-worker/--crash-after desugar into a crash:w=...,after=...\n"
      "  entry; --fault-seed seeds probabilistic decisions.\n"
      "  --retry-mode picks how a crashed step is re-executed: 'scratch'\n"
      "  (default; discard and re-run on the survivors, paper section 4) or\n"
      "  'salvage' (lineage-ledger partial recovery, DESIGN.md section 11:\n"
      "  keep the survivors' completed work and re-enumerate only the\n"
      "  crashed worker's unfinished fractoid tasks).\n");
}

/// Parses a numeric flag value: the whole token must be a base-10 integer
/// in [min, max]. Anything else exits 2 with a message naming the flag.
template <typename T>
T ParseNumber(const char* flag, const char* text, T min, T max) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    std::fprintf(stderr, "invalid value for %s: '%s' (want an integer in "
                         "[%s, %s])\n",
                 flag, text, std::to_string(min).c_str(),
                 std::to_string(max).c_str());
    std::exit(2);
  }
  return value;
}

/// Resolves a --query name to its pattern; false on unknown names.
bool ParseQueryPattern(const std::string& name, fractal::Pattern* out) {
  using fractal::Pattern;
  if (name == "triangle") {
    *out = Pattern::Clique(3);
  } else if (name == "square") {
    *out = Pattern::CyclePattern(4);
  } else if (name == "diamond") {
    *out = Pattern::CyclePattern(4);
    out->AddEdge(0, 2);
  } else if (name == "house") {
    *out = Pattern::CyclePattern(5);
    out->AddEdge(0, 2);
  } else if (name.size() == 2 && name[0] == 'q') {
    *out = fractal::SeedQuery(name[1] - '0');
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fractal;

  std::string kernel = "triangles";
  std::string graph_path, edgelist_path, query_name = "triangle";
  std::string trace_out;
  std::string profile_out, metricsz_out;
  int profile_hz = obs::Profiler::kDefaultHz;
  std::string fault_spec;
  uint64_t fault_seed = 0;
  int crash_worker = -1;
  int64_t crash_after = 100;
  bool dump_metrics = false;
  int concurrency = 0;
  int64_t deadline_ms = 0;
  uint32_t k = 3, support = 100, max_edges = 3;
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;

  // Intervals and deadlines are capped at one day so the steady-clock
  // arithmetic downstream cannot overflow.
  constexpr int64_t kMaxMillis = int64_t{24} * 60 * 60 * 1000;
  constexpr uint32_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](const char* flag, auto min, auto max) {
      return ParseNumber<decltype(min)>(flag, next(flag), min, max);
    };
    if (!std::strcmp(argv[i], "--kernel")) {
      kernel = next("--kernel");
    } else if (!std::strcmp(argv[i], "--graph")) {
      graph_path = next("--graph");
    } else if (!std::strcmp(argv[i], "--edgelist")) {
      edgelist_path = next("--edgelist");
    } else if (!std::strcmp(argv[i], "--k")) {
      k = number("--k", 1u, kMaxU32);
    } else if (!std::strcmp(argv[i], "--support")) {
      support = number("--support", 0u, kMaxU32);
    } else if (!std::strcmp(argv[i], "--max-edges")) {
      max_edges = number("--max-edges", 1u, kMaxU32);
    } else if (!std::strcmp(argv[i], "--query")) {
      query_name = next("--query");
    } else if (!std::strcmp(argv[i], "--workers")) {
      config.num_workers = number("--workers", 1u, 64u);
    } else if (!std::strcmp(argv[i], "--threads")) {
      config.threads_per_worker = number("--threads", 1u, 1024u);
    } else if (!std::strcmp(argv[i], "--no-stealing")) {
      config.internal_work_stealing = false;
      config.external_work_stealing = false;
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      trace_out = next("--trace-out");
    } else if (!std::strncmp(argv[i], "--trace-out=", 12)) {
      trace_out = argv[i] + 12;
    } else if (!std::strcmp(argv[i], "--metrics")) {
      dump_metrics = true;
    } else if (!std::strcmp(argv[i], "--metricsz-out")) {
      metricsz_out = next("--metricsz-out");
    } else if (!std::strcmp(argv[i], "--profile-out")) {
      profile_out = next("--profile-out");
    } else if (!std::strcmp(argv[i], "--profile-hz")) {
      profile_hz = number("--profile-hz", 1, obs::Profiler::kMaxHz);
    } else if (!std::strcmp(argv[i], "--statusz-port")) {
      config.statusz_port = number("--statusz-port", -1, 65535);
    } else if (!std::strcmp(argv[i], "--progress-ms")) {
      config.progress_interval_ms =
          number("--progress-ms", int64_t{0}, kMaxMillis);
    } else if (!std::strcmp(argv[i], "--fault-spec")) {
      fault_spec = next("--fault-spec");
    } else if (!std::strcmp(argv[i], "--fault-seed")) {
      fault_seed = number("--fault-seed", uint64_t{0},
                          std::numeric_limits<uint64_t>::max());
    } else if (!std::strcmp(argv[i], "--crash-worker")) {
      crash_worker = number("--crash-worker", -1, 63);
    } else if (!std::strcmp(argv[i], "--crash-after")) {
      crash_after = number("--crash-after", int64_t{0},
                           std::numeric_limits<int64_t>::max());
    } else if (!std::strcmp(argv[i], "--concurrency")) {
      concurrency = number("--concurrency", 0, 1024);
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      deadline_ms = number("--deadline-ms", int64_t{0}, kMaxMillis);
    } else if (!std::strcmp(argv[i], "--retry-mode")) {
      const std::string mode = next("--retry-mode");
      if (mode == "salvage") {
        config.retry.mode = RetryPolicy::Mode::kSalvage;
      } else if (mode == "scratch") {
        config.retry.mode = RetryPolicy::Mode::kFromScratch;
      } else {
        std::fprintf(stderr, "unknown --retry-mode '%s' (want scratch or "
                             "salvage)\n", mode.c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--help")) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage();
      return 2;
    }
  }

  // Desugar the fault flags into one FaultPlan: --fault-spec provides the
  // schedule, and the legacy --crash-worker/--crash-after pair appends a
  // deterministic crash entry.
  {
    FaultPlan plan(fault_seed);
    if (!fault_spec.empty()) {
      auto parsed = FaultPlan::Parse(fault_spec, fault_seed);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --fault-spec: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      plan = std::move(parsed).value();
    }
    if (crash_worker >= 0) {
      plan.CrashWorker(crash_worker,
                       static_cast<uint64_t>(crash_after > 0 ? crash_after
                                                             : 1));
    }
    config.fault_plan = std::move(plan);
  }

  Graph input;
  if (!graph_path.empty()) {
    auto loaded = LoadAdjacencyListFile(graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", graph_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    input = std::move(loaded).value();
  } else if (!edgelist_path.empty()) {
    auto loaded = LoadEdgeListFile(edgelist_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", edgelist_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    input = std::move(loaded).value();
  } else {
    std::fprintf(stderr, "no input graph given: using a synthetic demo "
                         "graph (2000 vertices)\n");
    PowerLawParams params;
    params.num_vertices = 2000;
    params.edges_per_vertex = 6;
    params.num_vertex_labels = 5;
    params.triangle_closure = 0.4;
    params.seed = 1;
    input = GeneratePowerLaw(params);
  }
  std::printf("graph: %s\n", input.DebugString().c_str());

  if (!trace_out.empty()) obs::Tracer::Get().Enable();
  // Scoped here so the session covers graph indexing and the kernel, and
  // the collapsed-stack file is written before the metrics dumps below.
  obs::ProfileSession profile_session(profile_out, profile_hz);

  FractalContext fctx(config);
  FractalGraph graph = fctx.FromGraph(std::move(input));
  WallTimer timer;

  if (concurrency > 0 || deadline_ms > 0) {
    // Multi-tenant / deadline-aware path (DESIGN.md §12): the
    // single-fractoid kernels run as scheduled queries on a shared cluster.
    if (kernel != "triangles" && kernel != "cliques" && kernel != "query") {
      std::fprintf(stderr,
                   "--concurrency/--deadline-ms support the single-fractoid "
                   "kernels (triangles, cliques, query), not '%s'\n",
                   kernel.c_str());
      return 2;
    }
    Pattern query_pattern;
    if (kernel == "query" && !ParseQueryPattern(query_name, &query_pattern)) {
      std::fprintf(stderr, "unknown query '%s'\n", query_name.c_str());
      return 2;
    }
    // Fresh fractoid per query: concurrent executions must not share cached
    // execution state (that is rejected with kFailedPrecondition).
    const auto build = [&] {
      if (kernel == "cliques") return CliquesFractoid(graph, k);
      if (kernel == "query") return QueryFractoid(graph, query_pattern);
      return CliquesFractoid(graph, 3);  // triangles
    };
    if (concurrency <= 0) {
      // Deadline only: synchronous run with a stack-owned control block.
      QueryControl control;
      control.name = kernel;
      control.SetDeadlineAfterMillis(deadline_ms);
      ExecutionConfig bounded = config;
      bounded.query = &control;
      const ExecutionResult result = build().Execute(bounded);
      std::printf("%s: status=%s subgraphs=%llu units=%llu\n", kernel.c_str(),
                  result.status.ok() ? "OK" : result.status.ToString().c_str(),
                  (unsigned long long)result.num_subgraphs,
                  (unsigned long long)control.work_units.load());
      if (!result.status.ok()) return 1;
    } else {
      ClusterOptions cluster_options;
      cluster_options.num_workers = config.num_workers;
      cluster_options.threads_per_worker = config.threads_per_worker;
      cluster_options.internal_work_stealing = config.internal_work_stealing;
      cluster_options.external_work_stealing =
          config.external_work_stealing && config.num_workers >= 2;
      cluster_options.network = config.network;
      cluster_options.progress_interval_ms = config.progress_interval_ms;
      cluster_options.statusz_port = config.statusz_port;
      Cluster cluster(cluster_options);
      QuerySchedulerOptions scheduler_options;
      scheduler_options.max_active = static_cast<uint32_t>(concurrency);
      scheduler_options.max_queued = static_cast<uint32_t>(2 * concurrency);
      QueryScheduler scheduler(&cluster, scheduler_options);

      std::vector<Fractoid> fractoids;
      fractoids.reserve(static_cast<size_t>(concurrency));
      for (int q = 0; q < concurrency; ++q) fractoids.push_back(build());
      std::vector<QueryHandle> handles;
      for (int q = 0; q < concurrency; ++q) {
        QueryScheduler::Submission submission;
        submission.name = kernel + "-" + std::to_string(q);
        submission.deadline_ms = deadline_ms;
        auto handle =
            ExecuteFractoidAsync(fractoids[q], config, scheduler,
                                 std::move(submission));
        if (!handle.ok()) {
          std::fprintf(stderr, "submit %d: %s\n", q,
                       handle.status().ToString().c_str());
          return 1;
        }
        handles.push_back(*std::move(handle));
      }
      bool all_ok = true;
      for (QueryHandle& handle : handles) {
        const ExecutionResult& result = handle.Wait();
        const std::string status_text =
            result.status.ok() ? "OK" : result.status.ToString();
        std::printf("%-14s status=%-8s subgraphs=%llu steps=%llu "
                    "units=%llu\n",
                    handle.name().c_str(), status_text.c_str(),
                    (unsigned long long)result.num_subgraphs,
                    (unsigned long long)handle.control().steps_run.load(),
                    (unsigned long long)handle.control().work_units.load());
        all_ok = all_ok && result.status.ok();
      }
      const QueryScheduler::Stats stats = scheduler.stats();
      std::printf("scheduler: admitted=%llu completed=%llu cancelled=%llu "
                  "deadline_exceeded=%llu rejected=%llu\n",
                  (unsigned long long)stats.admitted,
                  (unsigned long long)stats.completed,
                  (unsigned long long)stats.cancelled,
                  (unsigned long long)stats.deadline_exceeded,
                  (unsigned long long)stats.rejected);
      if (!all_ok) return 1;
    }
  } else if (kernel == "triangles") {
    std::printf("triangles: %llu\n",
                (unsigned long long)CountTriangles(graph, config));
  } else if (kernel == "cliques") {
    std::printf("%u-cliques: %llu\n", k,
                (unsigned long long)CountCliques(graph, k, config));
  } else if (kernel == "motifs") {
    const MotifsResult result = CountMotifs(graph, k, config);
    std::printf("%llu subgraphs, %zu motif shapes:\n",
                (unsigned long long)result.total, result.counts.size());
    for (const auto& [pattern, count] : result.counts) {
      std::printf("  %12llu  %s\n", (unsigned long long)count,
                  PatternShapeName(pattern).c_str());
    }
  } else if (kernel == "fsm") {
    const FsmResult result = RunFsm(graph, support, max_edges, config);
    std::printf("%zu frequent patterns (support >= %u):\n",
                result.frequent.size(), support);
    for (const auto& [pattern, mni] : result.frequent) {
      std::printf("  support %8llu : %s\n", (unsigned long long)mni,
                  pattern.ToString().c_str());
    }
  } else if (kernel == "query") {
    Pattern query;
    if (!ParseQueryPattern(query_name, &query)) {
      std::fprintf(stderr, "unknown query '%s'\n", query_name.c_str());
      return 2;
    }
    std::printf("%s matches: %llu\n", query_name.c_str(),
                (unsigned long long)CountQueryMatches(graph, query, config));
  } else if (kernel == "stats") {
    const GraphStats stats = ComputeStats(graph.graph());
    const CoreResult cores = CoreDecomposition(graph.graph());
    const ComponentsResult components = ConnectedComponents(graph.graph());
    std::printf("max degree %u, mean degree %.2f, triangles %llu, "
                "clustering %.4f, degeneracy %u, components %u "
                "(largest %u)\n",
                stats.max_degree, stats.mean_degree,
                (unsigned long long)stats.triangles,
                stats.clustering_coefficient, cores.degeneracy,
                components.num_components, components.largest_size);
  } else {
    Usage();
    return 2;
  }
  std::printf("done in %.3fs (%u workers x %u threads)\n",
              timer.ElapsedSeconds(), config.num_workers,
              config.threads_per_worker);
  if (!trace_out.empty()) {
    obs::Tracer::Get().Disable();
    const Status status = obs::Tracer::Get().ExportChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (open in ui.perfetto.dev or "
                "chrome://tracing)\n",
                trace_out.c_str());
  }
  if (dump_metrics) {
    std::printf("%s", obs::MetricsRegistry::Get().DumpText().c_str());
  }
  if (!metricsz_out.empty()) {
    const std::string prom = obs::MetricsRegistry::Get().DumpPrometheus();
    std::FILE* file = std::fopen(metricsz_out.c_str(), "w");
    if (file == nullptr ||
        std::fwrite(prom.data(), 1, prom.size(), file) != prom.size() ||
        std::fclose(file) != 0) {
      std::fprintf(stderr, "cannot write %s\n", metricsz_out.c_str());
      return 1;
    }
    std::printf("prometheus metrics written to %s\n", metricsz_out.c_str());
  }
  return 0;
}
