// Microbenchmarks (google-benchmark) for the hot paths of the engine:
// extension computation per strategy, canonicalization with and without the
// quick-pattern cache, subgraph push/pop, the stolen-work codec, and step
// dispatch on an ephemeral vs. persistent cluster.
#include <benchmark/benchmark.h>

#include "apps/queries.h"
#include "core/context.h"
#include "enumerate/enumerator.h"
#include "enumerate/extension.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "pattern/canonical.h"
#include "runtime/cluster.h"
#include "runtime/codec.h"
#include "util/check.h"

namespace fractal {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    PowerLawParams params;
    params.num_vertices = 2000;
    params.edges_per_vertex = 8;
    params.triangle_closure = 0.4;
    params.seed = 17;
    return new Graph(GeneratePowerLaw(params));
  }();
  return *graph;
}

void BM_VertexExtensions(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  VertexInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 10);
  subgraph.PushVertexInduced(graph, *graph.Neighbors(10).begin());
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out, /*rows=*/nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * ctx.extension_tests /
                          std::max<uint64_t>(state.iterations(), 1));
}
BENCHMARK(BM_VertexExtensions);

void BM_EdgeExtensions(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  EdgeInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushEdgeInduced(graph, 0);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out, /*rows=*/nullptr);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EdgeExtensions);

void BM_KClistExtensions(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  KClistStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 3);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out, /*rows=*/nullptr);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KClistExtensions);

// --- Extension data plane on a dense graph --------------------------------
// Dense Erdős–Rényi graph (400 vertices, 24k edges, ~30% density). The
// *ExtensionsKernel series time candidate computation alone; the
// *ExtendApply series below add the push of every candidate. The ci.sh
// perf-smoke stage runs both (--benchmark_filter='ExtensionsKernel|
// ExtendApply') and gates them against bench/baselines/BENCH_extension.json.

const Graph& DenseBenchGraph() {
  static const Graph* graph = [] {
    return new Graph(GenerateRandomGraph(/*num_vertices=*/400,
                                         /*num_edges=*/24000,
                                         /*num_vertex_labels=*/1,
                                         /*num_edge_labels=*/1, /*seed=*/7));
  }();
  return *graph;
}

/// A depth-3 connected vertex-induced prefix on the dense graph: vertex 0,
/// a neighbor, and a common neighbor of both.
Subgraph DenseVertexPrefix(const Graph& graph) {
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 0);
  const VertexId second = graph.Neighbors(0)[0];
  subgraph.PushVertexInduced(graph, second);
  for (const VertexId v : graph.Neighbors(0)) {
    if (v != second && graph.IsAdjacent(v, second)) {
      subgraph.PushVertexInduced(graph, v);
      break;
    }
  }
  return subgraph;
}

/// ComputeExtensions alone, candidates only, on one fixed prefix.
void RunExtensionBench(benchmark::State& state,
                       const ExtensionStrategy& strategy,
                       const Subgraph& subgraph) {
  const Graph& graph = DenseBenchGraph();
  ExtensionContext ctx;
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out, /*rows=*/nullptr);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_VertexExtensionsKernel(benchmark::State& state) {
  RunExtensionBench(state, VertexInducedStrategy{},
                    DenseVertexPrefix(DenseBenchGraph()));
}
BENCHMARK(BM_VertexExtensionsKernel);

void BM_EdgeExtensionsKernel(benchmark::State& state) {
  const Graph& graph = DenseBenchGraph();
  Subgraph subgraph;
  subgraph.PushEdgeInduced(graph, 0);
  const EdgeEndpoints& base = graph.Endpoints(0);
  for (const EdgeId e : graph.IncidentEdges(base.dst)) {
    if (e != 0) {
      subgraph.PushEdgeInduced(graph, e);
      break;
    }
  }
  RunExtensionBench(state, EdgeInducedStrategy{}, subgraph);
}
BENCHMARK(BM_EdgeExtensionsKernel);

void BM_KClistExtensionsKernel(benchmark::State& state) {
  RunExtensionBench(state, KClistStrategy{},
                    DenseVertexPrefix(DenseBenchGraph()));
}
BENCHMARK(BM_KClistExtensionsKernel);

/// The first `count` depth-`depth` subgraphs the strategy's own DFS reaches
/// on `graph`, in DFS order.
std::vector<Subgraph> Prefixes(const ExtensionStrategy& strategy,
                               const Graph& graph, uint32_t depth,
                               size_t count) {
  std::vector<Subgraph> prefixes;
  ExtensionContext ctx;
  Subgraph subgraph;
  auto walk = [&](auto&& self) -> void {
    if (subgraph.NumVertices() == depth) {
      prefixes.push_back(subgraph);
      return;
    }
    std::vector<uint32_t> out;
    strategy.ComputeExtensions(graph, subgraph, ctx, &out, /*rows=*/nullptr);
    for (const uint32_t extension : out) {
      if (prefixes.size() == count) return;
      strategy.ApplyBySearch(graph, extension, &subgraph, ctx.arena);
      self(self);
      strategy.Undo(graph, &subgraph);
    }
  };
  walk(walk);
  return prefixes;
}

/// One iteration: for each of 16 depth-2 prefixes of the dense graph,
/// ComputeExtensions with edge rows, then Apply/Undo of every candidate —
/// the DFS's per-node work, push included. Items are pushes.
void RunExtendApplyBench(benchmark::State& state,
                         const ExtensionStrategy& strategy) {
  const Graph& graph = DenseBenchGraph();
  std::vector<Subgraph> prefixes = Prefixes(strategy, graph, 2, 16);
  FRACTAL_CHECK(prefixes.size() == 16);
  ExtensionContext ctx;
  std::vector<uint32_t> out;
  std::vector<EdgeId> rows;
  uint64_t pushes = 0;
  for (auto _ : state) {
    for (Subgraph& prefix : prefixes) {
      strategy.ComputeExtensions(graph, prefix, ctx, &out, &rows);
      const size_t width = out.empty() ? 0 : rows.size() / out.size();
      for (size_t i = 0; i < out.size(); ++i) {
        strategy.Apply(graph, out[i],
                       std::span<const EdgeId>(rows.data() + i * width, width),
                       &prefix);
        benchmark::DoNotOptimize(prefix.NumEdges());
        strategy.Undo(graph, &prefix);
      }
      pushes += out.size();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(pushes));
}

void BM_VertexExtendApply(benchmark::State& state) {
  RunExtendApplyBench(state, VertexInducedStrategy{});
}
BENCHMARK(BM_VertexExtendApply);

void BM_KClistExtendApply(benchmark::State& state) {
  RunExtendApplyBench(state, KClistStrategy{});
}
BENCHMARK(BM_KClistExtendApply);

void BM_PatternQ2ExtendApply(benchmark::State& state) {
  RunExtendApplyBench(state, PatternInducedStrategy(SeedQuery(2)));
}
BENCHMARK(BM_PatternQ2ExtendApply);


void BM_CanonicalFormUncached(benchmark::State& state) {
  const Pattern pattern = [] {
    Pattern p = Pattern::CyclePattern(5);
    p.AddEdge(0, 2);
    p.AddEdge(1, 3);
    return p;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalForm(pattern));
  }
}
BENCHMARK(BM_CanonicalFormUncached);

void BM_CanonicalFormCached(benchmark::State& state) {
  CanonicalPatternCache cache;
  const Pattern pattern = [] {
    Pattern p = Pattern::CyclePattern(5);
    p.AddEdge(0, 2);
    p.AddEdge(1, 3);
    return p;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.Canonicalize(pattern));
  }
}
BENCHMARK(BM_CanonicalFormCached);

void BM_SubgraphPushPop(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 5);
  const VertexId neighbor = graph.Neighbors(5)[0];
  for (auto _ : state) {
    subgraph.PushVertexInduced(graph, neighbor);
    subgraph.Pop();
  }
}
BENCHMARK(BM_SubgraphPushPop);

void BM_StolenWorkCodec(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  SubgraphEnumerator::StolenWork work;
  work.prefix.PushVertexInduced(graph, 5);
  work.prefix.PushVertexInduced(graph, graph.Neighbors(5)[0]);
  work.prefix.PushVertexInduced(graph, graph.Neighbors(5)[1]);
  work.extension = 77;
  work.primitive_index = 3;
  SubgraphEnumerator::StolenWork decoded;
  for (auto _ : state) {
    const auto bytes = SubgraphCodec::EncodeStolenWork(work);
    benchmark::DoNotOptimize(
        SubgraphCodec::DecodeStolenWork(bytes, nullptr, &decoded));
  }
}
BENCHMARK(BM_StolenWorkCodec);

// --- Step dispatch: ephemeral vs. persistent cluster ----------------------
// A 4-step workflow (three aggregation sync points + a final enumeration)
// over a tiny graph, so per-step dispatch dominates the enumeration work.
// The ephemeral variant pays thread spawn/join for every execution (the
// pre-refactor executor paid it for every *step*); the persistent variant
// reuses one Cluster whose threads park between steps.

ExecutionConfig DispatchConfig() {
  ExecutionConfig config;
  config.num_workers = 4;
  config.threads_per_worker = 2;
  config.network.latency_micros = 0;
  config.network.per_kb_micros = 0;
  return config;
}

void RunMultiStepWorkflow(const FractalGraph& graph,
                          const ExecutionConfig& config) {
  auto key = [](const Subgraph&, Computation&) -> uint64_t { return 0; };
  auto value = [](const Subgraph&, Computation&) -> uint64_t { return 1; };
  auto reduce = [](uint64_t& a, uint64_t&& b) { a += b; };
  auto pass = [](const Subgraph&, Computation&,
                 const AggregationStorage<uint64_t, uint64_t>&) {
    return true;
  };
  // Fresh fractoid per run: cached aggregations would skip the steps.
  Fractoid fractoid = graph.EFractoid().Expand(1);
  for (int i = 0; i < 3; ++i) {
    // Built with += : `const char* + string&&` trips GCC 12's -Wrestrict
    // false positive (PR105651) under -O2.
    std::string name = "c";
    name += std::to_string(i);
    fractoid =
        fractoid.Aggregate<uint64_t, uint64_t>(name, key, value, reduce)
            .FilterByAggregation<uint64_t, uint64_t>(name, pass);
  }
  const ExecutionResult result = fractoid.Expand(1).Execute(config);
  // A silent failure here would benchmark the error path, not dispatch.
  FRACTAL_CHECK(result.status.ok()) << result.status;
  benchmark::DoNotOptimize(result.num_subgraphs);
}

void BM_StepDispatchEphemeralCluster(benchmark::State& state) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Star(6));
  const ExecutionConfig config = DispatchConfig();
  for (auto _ : state) {
    RunMultiStepWorkflow(graph, config);
  }
  state.SetItemsProcessed(state.iterations() * 4);  // steps dispatched
}
BENCHMARK(BM_StepDispatchEphemeralCluster)->Unit(benchmark::kMicrosecond);

void BM_StepDispatchPersistentCluster(benchmark::State& state) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Star(6));
  ExecutionConfig config = DispatchConfig();
  ClusterOptions options;
  options.num_workers = config.num_workers;
  options.threads_per_worker = config.threads_per_worker;
  options.external_work_stealing = true;
  options.network = config.network;
  Cluster cluster(options);
  config.cluster = &cluster;
  for (auto _ : state) {
    RunMultiStepWorkflow(graph, config);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_StepDispatchPersistentCluster)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fractal

BENCHMARK_MAIN();
