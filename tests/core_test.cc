#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "core/aggregation.h"
#include "core/computation.h"
#include "core/context.h"
#include "core/step.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "obs/metrics.h"
#include "pattern/canonical.h"
#include "pattern/pattern.h"
#include "runtime/cluster.h"
#include "tests/brute_force.h"
#include "util/alloc_guard.h"

namespace fractal {
namespace {

ExecutionConfig SingleThread() {
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  return config;
}

TEST(StepCompilerTest, SingleStepWithoutSyncPoints) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Complete(4));
  const Fractoid motifs_like =
      graph.VFractoid().Expand(3).Aggregate<uint64_t, uint64_t>(
          "agg", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
          [](const Subgraph&, Computation&) -> uint64_t { return 1; },
          [](uint64_t& a, uint64_t&& b) { a += b; });
  const auto steps = CompileSteps(motifs_like.primitives());
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].new_begin, 0u);
  EXPECT_EQ(steps[0].end, 4u);
}

TEST(StepCompilerTest, CutsAtAggregationFilters) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Complete(4));
  auto count_agg = [](const Fractoid& f) {
    return f.Aggregate<uint64_t, uint64_t>(
        "agg", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
        [](const Subgraph&, Computation&) -> uint64_t { return 1; },
        [](uint64_t& a, uint64_t&& b) { a += b; });
  };
  Fractoid f = count_agg(graph.EFractoid().Expand(1));  // [E, A]
  f = f.FilterByAggregation<uint64_t, uint64_t>(
      "agg", [](const Subgraph&, Computation&,
                const AggregationStorage<uint64_t, uint64_t>&) {
        return true;
      });
  f = count_agg(f.Expand(1));  // [E, A, F, E, A]
  const auto steps = CompileSteps(f.primitives());
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].end, 2u);
  EXPECT_EQ(steps[1].new_begin, 2u);
  EXPECT_EQ(steps[1].end, 5u);
}

TEST(ExecutorTest, CountsConnectedInducedSubgraphs) {
  const Graph g = GenerateRandomGraph(12, 26, 1, 1, 99);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  for (uint32_t k = 1; k <= 4; ++k) {
    const uint64_t expected = brute::CountConnectedVertexSets(g, k);
    EXPECT_EQ(graph.VFractoid().Expand(k).CountSubgraphs(SingleThread()),
              expected)
        << "k=" << k;
  }
}

class ExecutorConfigProperty
    : public ::testing::TestWithParam<std::tuple<int, int, bool, bool>> {};

TEST_P(ExecutorConfigProperty, SameCountsUnderAllClusterShapes) {
  const auto [workers, threads, internal_ws, external_ws] = GetParam();
  ExecutionConfig config;
  config.num_workers = workers;
  config.threads_per_worker = threads;
  config.internal_work_stealing = internal_ws;
  config.external_work_stealing = external_ws;
  config.network.latency_micros = 5;

  const Graph g = GenerateRandomGraph(14, 40, 1, 1, 1234);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  EXPECT_EQ(graph.VFractoid().Expand(3).CountSubgraphs(config),
            brute::CountConnectedVertexSets(g, 3));
  EXPECT_EQ(graph.EFractoid().Expand(3).CountSubgraphs(config),
            brute::CountConnectedEdgeSets(g, 3));
  EXPECT_EQ(CountCliques(graph, 3, config), brute::CountCliques(g, 3));
}

INSTANTIATE_TEST_SUITE_P(
    ClusterShapes, ExecutorConfigProperty,
    ::testing::Values(std::tuple{1, 1, false, false},
                      std::tuple{1, 4, false, false},
                      std::tuple{1, 4, true, false},
                      std::tuple{2, 2, true, false},
                      std::tuple{2, 2, false, true},
                      std::tuple{2, 2, true, true},
                      std::tuple{3, 2, true, true},
                      std::tuple{4, 1, false, true}));

TEST(ExecutorTest, LocalFilterPrunes) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Complete(5));
  // Only subgraphs containing vertex 0 survive the filter at depth 2.
  const uint64_t count =
      graph.VFractoid()
          .Expand(2)
          .Filter([](const Subgraph& s, Computation&) {
            return s.ContainsVertex(0);
          })
          .Expand(1)
          .CountSubgraphs(SingleThread());
  // Distinct 3-vertex sets containing 0 in K5: C(4,2) = 6.
  EXPECT_EQ(count, 6u);
}

TEST(ExecutorTest, AggregationCountsPerKey) {
  const Graph g = testgraphs::Petersen();
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  // Aggregate subgraph count keyed by whether the 3-subgraph is a triangle.
  auto result =
      graph.VFractoid()
          .Expand(3)
          .Aggregate<uint64_t, uint64_t>(
              "by_shape",
              [](const Subgraph& s, Computation&) -> uint64_t {
                return s.NumEdges() == 3 ? 1 : 0;
              },
              [](const Subgraph&, Computation&) -> uint64_t { return 1; },
              [](uint64_t& a, uint64_t&& b) { a += b; })
          .Execute(SingleThread());
  const auto& storage =
      result.Aggregation<uint64_t, uint64_t>("by_shape");
  // Petersen graph is triangle-free.
  EXPECT_EQ(storage.Find(1), nullptr);
  ASSERT_NE(storage.Find(0), nullptr);
  EXPECT_EQ(*storage.Find(0), brute::CountConnectedVertexSets(g, 3));
}

TEST(ExecutorTest, AggregationPostFilterDropsEntries) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Path(6));
  auto result =
      graph.EFractoid()
          .Expand(1)
          .Aggregate<uint64_t, uint64_t>(
              "edges_by_endpoint",
              [](const Subgraph& s, Computation& comp) -> uint64_t {
                return comp.graph().Endpoints(s.EdgeAt(0)).src;
              },
              [](const Subgraph&, Computation&) -> uint64_t { return 1; },
              [](uint64_t& a, uint64_t&& b) { a += b; },
              [](const uint64_t& key, const uint64_t&) {
                return key % 2 == 0;  // keep even sources only
              })
          .Execute(SingleThread());
  const auto& storage =
      result.Aggregation<uint64_t, uint64_t>("edges_by_endpoint");
  for (const auto& [key, value] : storage.entries()) {
    EXPECT_EQ(key % 2, 0u);
  }
  EXPECT_EQ(storage.NumEntries(), 3u);  // sources 0, 2, 4
}

TEST(ExecutorTest, AggregationFilterRunsMultiStep) {
  // Two-step workflow: count 1-edge subgraphs per source vertex, then only
  // extend edges whose source count passes a threshold.
  FractalContext fctx;
  const Graph g = testgraphs::Star(5);  // center 0 with 4 leaves
  FractalGraph graph = fctx.FromGraph(Graph(g));
  auto fractoid =
      graph.EFractoid()
          .Expand(1)
          .Aggregate<uint64_t, uint64_t>(
              "deg",
              [](const Subgraph&, Computation&) -> uint64_t { return 0; },
              [](const Subgraph&, Computation&) -> uint64_t { return 1; },
              [](uint64_t& a, uint64_t&& b) { a += b; })
          .FilterByAggregation<uint64_t, uint64_t>(
              "deg",
              [](const Subgraph&, Computation&,
                 const AggregationStorage<uint64_t, uint64_t>& agg) {
                return *agg.Find(0) == 4;  // all 4 edges counted
              })
          .Expand(1);
  auto result = fractoid.Execute(SingleThread());
  EXPECT_EQ(result.num_steps, 2u);
  EXPECT_EQ(result.steps_executed, 2u);
  // 2-edge connected subgraphs of a 4-star: C(4,2) = 6.
  EXPECT_EQ(result.num_subgraphs, 6u);
}

TEST(ExecutorTest, CachedAggregationsSkipSteps) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Complete(5));
  auto base = graph.EFractoid().Expand(1).Aggregate<uint64_t, uint64_t>(
      "count", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
      [](const Subgraph&, Computation&) -> uint64_t { return 1; },
      [](uint64_t& a, uint64_t&& b) { a += b; });
  auto first = base.Execute(SingleThread());
  EXPECT_EQ(first.steps_executed, 1u);

  // Deriving and executing again: the bootstrap step's aggregation is
  // cached on the shared fractoid state, so only the new step runs.
  auto extended = base.FilterByAggregation<uint64_t, uint64_t>(
                          "count",
                          [](const Subgraph&, Computation&,
                             const AggregationStorage<uint64_t, uint64_t>&) {
                            return true;
                          })
                      .Expand(1);
  auto second = extended.Execute(SingleThread());
  EXPECT_EQ(second.num_steps, 2u);
  EXPECT_EQ(second.steps_executed, 1u);  // step 0 skipped via cache
  EXPECT_EQ(second.num_subgraphs, brute::CountConnectedEdgeSets(
                                      graph.graph(), 2));
}

TEST(ExecutorTest, CollectSubgraphsReturnsAllMatches) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Cycle(6));
  auto subgraphs = graph.VFractoid().Expand(2).CollectSubgraphs(SingleThread());
  EXPECT_EQ(subgraphs.size(), 6u);  // the 6 edges as vertex pairs
  std::set<std::pair<VertexId, VertexId>> pairs;
  for (const Subgraph& s : subgraphs) {
    ASSERT_EQ(s.NumVertices(), 2u);
    pairs.emplace(std::min(s.VertexAt(0), s.VertexAt(1)),
                  std::max(s.VertexAt(0), s.VertexAt(1)));
  }
  EXPECT_EQ(pairs.size(), 6u);
}

TEST(ExecutorTest, TelemetryAccountsWork) {
  const Graph g = GenerateRandomGraph(20, 60, 1, 1, 5);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  auto result = graph.VFractoid().Expand(3).Execute(config);
  ASSERT_EQ(result.telemetry.steps.size(), 1u);
  const StepTelemetry& step = result.telemetry.steps[0];
  EXPECT_EQ(step.threads.size(), 4u);
  // Total work = total extensions consumed = number of subgraphs at every
  // depth 1..3.
  uint64_t expected_work = 0;
  for (uint32_t k = 1; k <= 3; ++k) {
    expected_work += brute::CountConnectedVertexSets(g, k);
  }
  EXPECT_EQ(step.TotalWorkUnits(), expected_work);
  EXPECT_GT(step.TotalExtensionTests(), 0u);
  EXPECT_GT(result.peak_state_bytes, 0u);
  EXPECT_LE(step.BalanceEfficiency(0), 1.0);
}

TEST(ExecutorTest, GraphReductionKeepsIdSpace) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Complete(5));
  // Drop vertex 4: counts become those of K4.
  FractalGraph reduced = graph.VFilter(
      [](const Graph&, VertexId v) { return v != 4; });
  EXPECT_EQ(reduced.graph().NumActiveVertices(), 4u);
  EXPECT_EQ(reduced.graph().NumEdges(), 6u);
  EXPECT_EQ(CountCliques(reduced, 3, SingleThread()), 4u);  // C(4,3)
  // Vertex ids refer to the original graph.
  auto subgraphs =
      reduced.VFractoid().Expand(1).CollectSubgraphs(SingleThread());
  std::set<VertexId> roots;
  for (const Subgraph& s : subgraphs) roots.insert(s.VertexAt(0));
  EXPECT_EQ(roots, (std::set<VertexId>{0, 1, 2, 3}));
}

TEST(ExecutionConfigTest, ValidateCatchesBadShapes) {
  ExecutionConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  ExecutionConfig zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_FALSE(zero_workers.Validate().ok());

  ExecutionConfig zero_threads;
  zero_threads.threads_per_worker = 0;
  EXPECT_FALSE(zero_threads.Validate().ok());

  ExecutionConfig bad_crash;
  bad_crash.num_workers = 2;
  bad_crash.fault_plan = FaultPlan().CrashWorker(2, 50);  // workers: 0, 1
  EXPECT_FALSE(bad_crash.Validate().ok());
  bad_crash.fault_plan = FaultPlan().CrashWorker(1, 50);
  EXPECT_TRUE(bad_crash.Validate().ok());

  ExecutionConfig zero_attempts;
  zero_attempts.retry.max_attempts = 0;
  EXPECT_FALSE(zero_attempts.Validate().ok());
}

TEST(ExecutionConfigTest, InvalidShapeReturnsStatusWithoutACluster) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Complete(4));
  ExecutionConfig zero_workers;
  zero_workers.num_workers = 0;
  ExecutionConfig too_many_workers;
  too_many_workers.num_workers = 65;
  ExecutionConfig zero_threads;
  zero_threads.threads_per_worker = 0;
  const uint64_t steps_before = obs::StepsCounter().Value();
  for (const ExecutionConfig& config :
       {zero_workers, too_many_workers, zero_threads}) {
    // Each shape would CHECK-fail in the Cluster constructor, so returning
    // at all shows no cluster was built.
    const ExecutionResult result =
        ExecuteFractoid(graph.VFractoid().Expand(2), config);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << result.status;
    EXPECT_EQ(result.steps_executed, 0u);
  }
  EXPECT_EQ(obs::StepsCounter().Value(), steps_before);
}

TEST(ExecutorTest, UnscheduledExecutionPublishesItsUnitsAsQueryZero) {
  const Graph g = GenerateRandomGraph(20, 60, 1, 1, 5);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  obs::QueryUnitsGauge(0).Set(0);
  const ExecutionResult result = graph.VFractoid().Expand(3).Execute(config);
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_EQ(result.telemetry.steps.size(), 1u);
  const uint64_t units = result.telemetry.steps[0].TotalWorkUnits();
  EXPECT_GT(units, 0u);
  EXPECT_EQ(obs::QueryUnitsGauge(0).Value(), static_cast<int64_t>(units));
}

TEST(ExecutionConfigTest, ValidateChecksCrashWorkerAgainstInjectedCluster) {
  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  Cluster cluster(options);
  ExecutionConfig config;
  config.cluster = &cluster;
  config.fault_plan = FaultPlan().CrashWorker(1, 10);
  EXPECT_TRUE(config.Validate().ok());
  // Crash target outside the injected cluster's topology.
  config.fault_plan = FaultPlan().CrashWorker(2, 10);
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ExecutorTest, InjectedClusterSurvivesWorkerCrashRecovery) {
  const Graph g = GenerateRandomGraph(30, 90, 1, 1, 4242);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig healthy;
  healthy.num_workers = 2;
  healthy.threads_per_worker = 2;
  healthy.network.latency_micros = 1;
  const uint64_t expected =
      graph.VFractoid().Expand(3).CountSubgraphs(healthy);

  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 2;
  options.external_work_stealing = true;
  options.network.latency_micros = 1;
  Cluster cluster(options);

  ExecutionConfig faulty = healthy;
  faulty.cluster = &cluster;
  faulty.fault_plan = FaultPlan().CrashWorker(1, 50);  // mid-step failure
  const ExecutionResult result = graph.VFractoid().Expand(3).Execute(faulty);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.num_subgraphs, expected);
  EXPECT_EQ(result.steps_retried, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].worker, 1);
  EXPECT_GT(result.failures[0].work_units_lost, 0u);

  // The retry policy excluded the crashed worker: the re-execution ran
  // degraded on the survivor.
  EXPECT_EQ(cluster.num_live_workers(), 1u);

  // The abandoned step left no residue: after re-admitting the crashed
  // worker, the same cluster keeps serving healthy executions with exact
  // counts.
  cluster.RestoreAllWorkers();
  ExecutionConfig reuse;
  reuse.cluster = &cluster;
  EXPECT_EQ(graph.VFractoid().Expand(3).CountSubgraphs(reuse), expected);
}

TEST(ExecutorTest, WorkerCrashIsRecoveredByStepRetry) {
  const Graph g = GenerateRandomGraph(30, 90, 1, 1, 4242);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig healthy;
  healthy.num_workers = 2;
  healthy.threads_per_worker = 2;
  healthy.network.latency_micros = 1;
  const uint64_t expected =
      graph.VFractoid().Expand(3).CountSubgraphs(healthy);

  ExecutionConfig faulty = healthy;
  faulty.fault_plan = FaultPlan().CrashWorker(1, 50);  // mid-step failure
  const ExecutionResult result =
      graph.VFractoid().Expand(3).Execute(faulty);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.num_subgraphs, expected);
  EXPECT_EQ(result.steps_retried, 1u);
}

TEST(ExecutorTest, WorkerCrashDuringAggregationStillExact) {
  const Graph g = GenerateRandomGraph(25, 60, 2, 1, 777);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  auto make = [&graph]() {
    return graph.EFractoid().Expand(2).Aggregate<uint64_t, uint64_t>(
        "count", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
        [](const Subgraph&, Computation&) -> uint64_t { return 1; },
        [](uint64_t& a, uint64_t&& b) { a += b; });
  };
  ExecutionConfig healthy;
  healthy.num_workers = 2;
  healthy.threads_per_worker = 1;
  healthy.network.latency_micros = 1;
  const auto clean = make().Execute(healthy);

  ExecutionConfig faulty = healthy;
  faulty.fault_plan = FaultPlan().CrashWorker(0, 20);
  const auto recovered = make().Execute(faulty);
  ASSERT_TRUE(recovered.status.ok()) << recovered.status;
  EXPECT_EQ(recovered.steps_retried, 1u);
  const uint64_t clean_count =
      *TypedStorage<uint64_t, uint64_t>(*clean.aggregations.begin()->second)
           .Find(0);
  const uint64_t recovered_count = *TypedStorage<uint64_t, uint64_t>(
                                        *recovered.aggregations.begin()->second)
                                        .Find(0);
  EXPECT_EQ(recovered_count, clean_count);
}

TEST(ExecutorTest, CrashThresholdNeverReachedMeansNoRetry) {
  const Graph g = GenerateRandomGraph(12, 24, 1, 1, 31);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 1;
  config.network.latency_micros = 1;
  config.fault_plan = FaultPlan().CrashWorker(1, 100000000);  // unreachable
  const auto result = graph.VFractoid().Expand(2).Execute(config);
  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.steps_retried, 0u);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ExecutorTest, WorkStealingProducesBalancedWork) {
  // A skewed graph (star-heavy) with stealing: no thread should finish with
  // zero work units while others hold the bulk, and counts stay exact.
  PowerLawParams params;
  params.num_vertices = 300;
  params.edges_per_vertex = 3;
  params.seed = 7;
  const Graph g = GeneratePowerLaw(params);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig stealing;
  stealing.num_workers = 2;
  stealing.threads_per_worker = 2;
  stealing.network.latency_micros = 1;
  ExecutionConfig no_stealing = stealing;
  no_stealing.internal_work_stealing = false;
  no_stealing.external_work_stealing = false;

  const uint64_t count_with = CountCliques(graph, 3, stealing);
  const uint64_t count_without = CountCliques(graph, 3, no_stealing);
  EXPECT_EQ(count_with, count_without);
}

// --- AggregationStorage memory accounting & merge (regressions) ----------

/// Pattern-keyed storage whose key/value functions ignore the subgraph and
/// synthesize entries from `next_key` — lets tests drive Accumulate without
/// an execution. Paths of 9..12 vertices spill to the heap.
using PatternCountStorage = AggregationStorage<Pattern, uint64_t, PatternHash>;

PatternCountStorage MakePatternStorage(uint32_t* next_key) {
  return PatternCountStorage(
      [next_key](const Subgraph&, Computation&) {
        // Distinct keys: paths of 3..12 vertices.
        return Pattern::PathPattern(3 + (*next_key)++ % 10);
      },
      [](const Subgraph&, Computation&) -> uint64_t { return 1; },
      [](uint64_t& a, uint64_t&& b) { a += b; }, nullptr);
}

TEST(AggregationStorageTest, ApproxBytesCountsHeapOwnedByEntries) {
  // Inline patterns own no heap; patterns past the inline capacity do.
  EXPECT_EQ(HeapBytesOf(Pattern::PathPattern(3)), 0u);
  EXPECT_EQ(HeapBytesOf(Pattern::Clique(Pattern::kInlineVertices)), 0u);
  EXPECT_GT(HeapBytesOf(Pattern::PathPattern(12)), 0u);

  // FSM's DomainSupport values own their vertex-set domains: the
  // heap-owning entry the memory drilldowns (Table 2) must not undercount.
  // Each value holds the four triangles of K4, several distinct embeddings
  // per domain.
  const Graph g = testgraphs::Complete(4);
  Computation comp(&g);
  std::vector<Subgraph> triangles;
  for (VertexId skip = 0; skip < 4; ++skip) {
    Subgraph triangle;
    for (VertexId v = 0; v < 4; ++v) {
      if (v != skip) triangle.PushVertexInduced(g, v);
    }
    triangles.push_back(triangle);
  }
  const Subgraph& triangle = triangles[0];
  const CanonicalResult canonical = CanonicalForm(triangle.QuickPattern(g));
  uint64_t next_key = 0;
  AggregationStorage<uint64_t, DomainSupport> storage(
      [&next_key](const Subgraph&, Computation&) { return next_key++; },
      [&canonical, &triangles, &g](const Subgraph&, Computation&) {
        DomainSupport support(1, g.NumVertices());
        for (const Subgraph& embedding : triangles) {
          support.AddEmbedding(embedding, canonical);
        }
        return support;
      },
      [](DomainSupport& into, DomainSupport&& from) {
        into.Merge(std::move(from));
      },
      nullptr);
  for (int i = 0; i < 10; ++i) storage.Accumulate(triangle, comp);
  ASSERT_EQ(storage.NumEntries(), 10u);

  // Inline node size alone (bucket array + sizeof(K/V) + per-node
  // pointers) undercounts by exactly the heap the values report.
  const uint64_t naive =
      storage.entries().bucket_count() * sizeof(void*) +
      storage.NumEntries() *
          (sizeof(uint64_t) + sizeof(DomainSupport) + 2 * sizeof(void*));
  uint64_t owned = 0;
  for (const auto& [key, value] : storage.entries()) {
    owned += value.ApproxHeapBytes();
  }
  EXPECT_GT(owned, 0u);
  EXPECT_EQ(storage.ApproxBytes(), naive + owned);
}

TEST(AggregationStorageTest, MergeFromMovesNodesWithoutAllocating) {
  if (!AllocGuard::Active()) {
    GTEST_SKIP() << "alloc-guard runtime not compiled in";
  }
  const Graph g = testgraphs::Complete(3);
  Computation comp(&g);
  const Subgraph unused;

  // Destination and source share 5 of 10 key shapes (paths of 3..12 vs
  // 3..7 vertices): the merge exercises both the move-node and the
  // reduce-duplicate branch.
  uint32_t dest_key = 0;
  PatternCountStorage dest = MakePatternStorage(&dest_key);
  uint32_t source_key = 0;
  PatternCountStorage source = MakePatternStorage(&source_key);
  for (int i = 0; i < 10; ++i) dest.Accumulate(unused, comp);
  for (int i = 0; i < 5; ++i) source.Accumulate(unused, comp);
  // Pre-warm the destination's bucket array past the merged size so the
  // guard below measures the merge itself, not an incidental rehash.
  for (int i = 0; i < 16; ++i) dest.Accumulate(unused, comp);
  const uint64_t merged_count = dest.NumEntries();

  // The regression: the seed's MergeFrom copied each key into the
  // destination — one allocation per Pattern vector, inside the step
  // barrier's guarded region. Moving whole map nodes must not allocate.
  {
    AllocGuard guard(AllocGuard::Mode::kCount);
    dest.MergeFrom(source);
    EXPECT_EQ(guard.allocations(), 0u)
        << "MergeFrom allocated despite node-handle moves";
  }
  EXPECT_EQ(dest.NumEntries(), merged_count);  // all source keys were known
  EXPECT_EQ(source.NumEntries(), 0u);          // and consumed
  // Reduced counts survived the merge: every path shape 3..7 was counted in
  // both storages.
  const Pattern probe = Pattern::PathPattern(3);
  ASSERT_NE(dest.Find(probe), nullptr);
  EXPECT_GE(*dest.Find(probe), 2u);
}

}  // namespace
}  // namespace fractal
