// End-to-end check of the hot-path allocation discipline (DESIGN.md §9):
// after the per-step warm-up, full-cluster runs of the vertex-induced,
// edge-induced, KClist and pattern-induced strategies, of Listing 2's
// triangles and 4-cliques, of SEED q2/q6 and of motif counting through the
// two counted leaves, and of FSM's in-place MNI domains, perform ZERO heap
// allocations in their steady-state DFS regions — edge rows included.
// FractoidStepTask arms an AllocGuard around each extension once a thread
// has consumed AllocGuard::warmup_units() work units in the step; these
// tests crank the global mode to kCount (assert the observed total is zero)
// and kAbort (completing at all is the assertion), and pin the
// ScratchArena's amortization story: pool misses depend on the DFS shape,
// not on how much work flows through it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "core/context.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "obs/metrics.h"
#include "util/alloc_guard.h"

namespace fractal {
namespace {

ExecutionConfig OneThread() {
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  return config;
}

ExecutionConfig SmallCluster() {
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  return config;
}

struct StrategyCounts {
  uint64_t vertex_induced = 0;
  uint64_t edge_induced = 0;
  uint64_t kclist = 0;

  bool operator==(const StrategyCounts&) const = default;
};

// One full cluster run per extension strategy. Graph sizes below are picked
// so a single thread consumes well over AllocGuard::warmup_units() (default
// 512) extensions per step, i.e. the guards actually arm.
StrategyCounts RunAllStrategies(const Graph& g, const ExecutionConfig& config) {
  StrategyCounts counts;
  {
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(g));
    counts.vertex_induced =
        graph.VFractoid().Expand(3).CountSubgraphs(config);
    counts.edge_induced = graph.EFractoid().Expand(2).CountSubgraphs(config);
    counts.kclist = CountCliquesOptimized(graph, 4, config);
  }
  return counts;
}

class HotPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!AllocGuard::Active()) {
      GTEST_SKIP() << "alloc-guard runtime compiled out";
    }
    prior_mode_ = AllocGuard::GlobalMode();
  }
  void TearDown() override {
    if (AllocGuard::Active()) AllocGuard::SetGlobalMode(prior_mode_);
  }

  AllocGuard::Mode prior_mode_ = AllocGuard::Mode::kOff;
};

TEST_F(HotPathTest, SteadyStateIsAllocationFreeUnderCountMode) {
  const Graph g = testgraphs::Complete(12);
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const StrategyCounts expected = RunAllStrategies(g, OneThread());

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const StrategyCounts counted = RunAllStrategies(g, OneThread());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded = AllocGuard::TotalGuardedAllocations() -
                           guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(counted, expected);
  // The workload must be big enough that the guard armed at all, otherwise
  // this test asserts nothing.
  ASSERT_GT(work, AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the enumeration hot path";
}

TEST_F(HotPathTest, CompletesUnderAbortModeSingleThread) {
  const Graph g = testgraphs::Complete(12);
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const StrategyCounts expected = RunAllStrategies(g, OneThread());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  // Surviving the runs is the assertion: any steady-state allocation on a
  // guarded thread aborts the process.
  const StrategyCounts aborted_mode = RunAllStrategies(g, OneThread());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode, expected);
}

TEST_F(HotPathTest, CompletesUnderAbortModeWithStealingCluster) {
  const Graph g = testgraphs::Complete(13);
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const StrategyCounts expected = RunAllStrategies(g, SmallCluster());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const StrategyCounts aborted_mode = RunAllStrategies(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode, expected);
}

// Motif counting aggregates every subgraph under its canonical pattern.
// CountMotifs counts by pattern, so its leaf level is the counted leaf
// (DESIGN.md §8 "Leaf batches"): candidates grouped by (adjacency mask,
// vertex label), one representative pushed and canonicalized per group.
// That path allocates only on a canonical-cache miss or a pattern slot the
// thread has not seen yet (both audited, cold); everything else runs
// guarded. Two vertex labels give several groups and distinct motifs per
// thread.
MotifsResult RunMotifs(const Graph& g, const ExecutionConfig& config) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  return CountMotifs(graph, 3, config);
}

Graph LabeledMotifGraph() {
  return GenerateRandomGraph(/*num_vertices=*/300, /*num_edges=*/1500,
                             /*num_vertex_labels=*/2, /*num_edge_labels=*/1,
                             /*seed=*/17);
}

TEST_F(HotPathTest, MotifAggregationIsAllocationFreeUnderCountMode) {
  const Graph g = LabeledMotifGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const MotifsResult expected = RunMotifs(g, SmallCluster());
  ASSERT_GT(expected.counts.size(), 2u);

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const MotifsResult counted = RunMotifs(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded = AllocGuard::TotalGuardedAllocations() -
                           guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(counted.counts, expected.counts);
  // Enough work that each of the 4 threads runs well past warm-up, so the
  // guards arm; otherwise this test asserts nothing.
  ASSERT_GT(work, 4 * 4 * AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the motif aggregation path";
}

TEST_F(HotPathTest, MotifAggregationCompletesUnderAbortMode) {
  const Graph g = LabeledMotifGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const MotifsResult expected = RunMotifs(g, SmallCluster());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const MotifsResult aborted_mode = RunMotifs(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode.counts, expected.counts);
}

// Listing 2's triangles: vertex-induced extension with a clique filter, the
// path whose pushes read edge rows instead of searching adjacency. The rows
// ride in recycled frame storage next to the extensions, so the guarded
// region stays allocation-free.
Graph TriangleGraph() {
  return GenerateRandomGraph(/*num_vertices=*/300, /*num_edges=*/4000,
                             /*num_vertex_labels=*/1, /*num_edge_labels=*/1,
                             /*seed=*/29);
}

uint64_t RunTriangles(const Graph& g, const ExecutionConfig& config) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  return CountTriangles(graph, config);
}

TEST_F(HotPathTest, TrianglesAreAllocationFreeUnderCountMode) {
  const Graph g = TriangleGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t expected = RunTriangles(g, SmallCluster());
  ASSERT_GT(expected, 0u);

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const uint64_t counted = RunTriangles(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded = AllocGuard::TotalGuardedAllocations() -
                           guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(counted, expected);
  // Each of the 4 threads well past warm-up, so the guards arm.
  ASSERT_GT(work, 4 * 4 * AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the triangle path";
}

TEST_F(HotPathTest, TrianglesCompleteUnderAbortMode) {
  const Graph g = TriangleGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t expected = RunTriangles(g, SmallCluster());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const uint64_t aborted_mode = RunTriangles(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode, expected);
}

// Listing 2's 4-cliques: behind the last expansion only the clique size
// filter follows, so each leaf batch judges its candidates by the edges
// their rows add and counts the cliques without pushing them (DESIGN.md §8
// "Leaf batches"). The interior levels still push, filter and steal.
uint64_t RunFourCliques(const Graph& g, const ExecutionConfig& config) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  return CountCliques(graph, 4, config);
}

TEST_F(HotPathTest, FourCliquesAreAllocationFreeUnderCountMode) {
  const Graph g = TriangleGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t expected = RunFourCliques(g, SmallCluster());
  ASSERT_GT(expected, 0u);

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const uint64_t counted = RunFourCliques(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded = AllocGuard::TotalGuardedAllocations() -
                           guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(counted, expected);
  // Each of the 4 threads well past warm-up, so the guards arm.
  ASSERT_GT(work, 4 * 4 * AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the 4-clique path";
}

TEST_F(HotPathTest, FourCliquesCompleteUnderAbortMode) {
  const Graph g = TriangleGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t expected = RunFourCliques(g, SmallCluster());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const uint64_t aborted_mode = RunFourCliques(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode, expected);
}

// SEED q2 (square) and q6 (house) through PFractoid: the pattern-induced
// strategy's kernel passes over scratch leases. Two edge labels keep the
// per-survivor edge-label check on the path too. CountQueryMatches ends
// its step at the leaf, so the leaf level is the counted leaf that pushes
// nothing (DESIGN.md §8 "Leaf batches").
struct QueryCounts {
  uint64_t q2 = 0;
  uint64_t q6 = 0;

  bool operator==(const QueryCounts&) const = default;
};

QueryCounts RunQueries(const Graph& g, const ExecutionConfig& config) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  return {CountQueryMatches(graph, SeedQuery(2), config),
          CountQueryMatches(graph, SeedQuery(6), config)};
}

Graph LabeledQueryGraph() {
  return GenerateRandomGraph(/*num_vertices=*/300, /*num_edges=*/4000,
                             /*num_vertex_labels=*/1, /*num_edge_labels=*/2,
                             /*seed=*/23);
}

TEST_F(HotPathTest, PatternQueriesAreAllocationFreeUnderCountMode) {
  const Graph g = LabeledQueryGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const QueryCounts expected = RunQueries(g, SmallCluster());
  ASSERT_GT(expected.q2, 0u);
  ASSERT_GT(expected.q6, 0u);

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const QueryCounts counted = RunQueries(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded = AllocGuard::TotalGuardedAllocations() -
                           guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(counted, expected);
  // Two queries on 4 threads, each thread well past warm-up.
  ASSERT_GT(work, 2 * 4 * 4 * AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the pattern-query path";
}

TEST_F(HotPathTest, PatternQueriesCompleteUnderAbortMode) {
  const Graph g = LabeledQueryGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const QueryCounts expected = RunQueries(g, SmallCluster());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const QueryCounts aborted_mode = RunQueries(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode, expected);
}

// FSM (Listing 3): three steps of edge-induced extension, each folding every
// embedding into its pattern's MNI domains in place. After a pattern's first
// embedding in a storage, a domain allocates only when a run outgrows its
// buffer or is promoted to a bitmap (the audited growth escape), so the
// guarded regions stay allocation-free. The 2x2 cluster steals internally
// and through the codec (WS_ext is on by default).
FsmResult RunLabeledFsm(const Graph& g, const ExecutionConfig& config) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  return RunFsm(graph, /*min_support=*/20, /*max_edges=*/3, config);
}

std::map<Pattern, uint64_t> Supports(const FsmResult& result) {
  std::map<Pattern, uint64_t> supports;
  for (const auto& [pattern, support] : result.frequent) {
    supports.emplace(pattern, support);
  }
  return supports;
}

Graph LabeledFsmGraph() {
  return GenerateRandomGraph(/*num_vertices=*/300, /*num_edges=*/1500,
                             /*num_vertex_labels=*/3, /*num_edge_labels=*/1,
                             /*seed=*/31);
}

TEST_F(HotPathTest, FsmIsAllocationFreeUnderCountMode) {
  const Graph g = LabeledFsmGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const FsmResult expected = RunLabeledFsm(g, SmallCluster());
  ASSERT_EQ(expected.iterations, 3u);
  ASSERT_GT(expected.frequent.size(), 3u);

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const FsmResult counted = RunLabeledFsm(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded = AllocGuard::TotalGuardedAllocations() -
                           guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(Supports(counted), Supports(expected));
  // Three steps on 4 threads, each thread well past warm-up in the last.
  ASSERT_GT(work, 4 * 4 * AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the FSM aggregation path";
}

TEST_F(HotPathTest, FsmCompletesUnderAbortMode) {
  const Graph g = LabeledFsmGraph();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const FsmResult expected = RunLabeledFsm(g, SmallCluster());

  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const FsmResult aborted_mode = RunLabeledFsm(g, SmallCluster());
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(Supports(aborted_mode), Supports(expected));
}

TEST_F(HotPathTest, ScratchMissesDependOnShapeNotWorkVolume) {
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  // Same DFS shape (same strategies, same depths, same thread count) on a
  // small and a much larger graph: the arena pools warm up to the DFS's
  // peak concurrent lease count, which is a property of the shape. The
  // misses must NOT scale with the work volume.
  const uint64_t misses_before_small = obs::ScratchMissesCounter().Value();
  const uint64_t work_before_small = obs::WorkUnitsCounter().Value();
  RunAllStrategies(testgraphs::Complete(8), OneThread());
  const uint64_t misses_small =
      obs::ScratchMissesCounter().Value() - misses_before_small;
  const uint64_t work_small = obs::WorkUnitsCounter().Value() -
                              work_before_small;

  const uint64_t misses_before_large = obs::ScratchMissesCounter().Value();
  const uint64_t work_before_large = obs::WorkUnitsCounter().Value();
  RunAllStrategies(testgraphs::Complete(13), OneThread());
  const uint64_t misses_large =
      obs::ScratchMissesCounter().Value() - misses_before_large;
  const uint64_t work_large = obs::WorkUnitsCounter().Value() -
                              work_before_large;

  ASSERT_GT(work_large, 2 * work_small);
  EXPECT_EQ(misses_large, misses_small)
      << "scratch misses grew with work volume: the pool is not amortizing";
}

// Meaningful when the harness sets FRACTAL_ALLOC_GUARD (the ci.sh
// alloc-guard stage runs this binary with FRACTAL_ALLOC_GUARD=abort): the
// lazily parsed global mode must reflect the environment.
TEST_F(HotPathTest, EnvironmentSelectsGlobalMode) {
  const char* env = std::getenv("FRACTAL_ALLOC_GUARD");
  if (env == nullptr) GTEST_SKIP() << "FRACTAL_ALLOC_GUARD not set";
  const std::string mode(env);
  if (mode == "abort") {
    EXPECT_EQ(prior_mode_, AllocGuard::Mode::kAbort);
  } else if (mode == "count") {
    EXPECT_EQ(prior_mode_, AllocGuard::Mode::kCount);
  }
}

}  // namespace
}  // namespace fractal
