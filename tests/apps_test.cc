#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/keyword_search.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "baselines/single_thread.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "tests/brute_force.h"
#include "util/random.h"

namespace fractal {
namespace {

ExecutionConfig SmallCluster() {
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  return config;
}

TEST(MotifsTest, PetersenThreeVertexMotifs) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Petersen());
  const MotifsResult result = CountMotifs(graph, 3, SmallCluster());
  // Petersen is triangle-free: all 3-vertex motifs are paths. Each of the
  // 10 vertices has degree 3 -> C(3,2) = 3 paths centered there = 30.
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_EQ(result.total, 30u);
  const Pattern path = CanonicalForm(Pattern::PathPattern(3)).pattern;
  ASSERT_TRUE(result.counts.count(path));
  EXPECT_EQ(result.counts.at(path), 30u);
}

TEST(MotifsTest, MatchesBruteForceOnRandomGraphs) {
  for (const uint64_t seed : {41u, 42u}) {
    const Graph g = GenerateRandomGraph(12, 28, 1, 1, seed);
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(g));
    for (uint32_t k = 3; k <= 4; ++k) {
      const MotifsResult result = CountMotifs(graph, k, SmallCluster());
      const auto expected = brute::MotifCounts(g, k);
      ASSERT_EQ(result.counts.size(), expected.size())
          << "k=" << k << " seed=" << seed;
      for (const auto& [pattern, count] : expected) {
        ASSERT_TRUE(result.counts.count(pattern)) << pattern.ToString();
        EXPECT_EQ(result.counts.at(pattern), count) << pattern.ToString();
      }
    }
  }
}

TEST(MotifsTest, LabeledMotifsDistinguishLabels) {
  // Two triangles with different label multisets are different motifs.
  const Graph g = testgraphs::LabeledFsmExample();
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const MotifsResult result = CountMotifs(graph, 3, SmallCluster());
  const auto expected = brute::MotifCounts(g, 3);
  ASSERT_EQ(result.counts.size(), expected.size());
  for (const auto& [pattern, count] : expected) {
    EXPECT_EQ(result.counts.at(pattern), count);
  }
}

// Subgraphs whose quick pattern has no quick code go through the canonical
// cache's Pattern path: more than 8 vertices, several edge labels, or a
// vertex label wider than a code slot. Their counts must match the brute
// force and the single-thread oracle exactly.
void ExpectMotifsMatchOracles(const Graph& g, uint32_t k) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const MotifsResult result = CountMotifs(graph, k, SmallCluster());
  const auto expected = brute::MotifCounts(g, k);
  ASSERT_FALSE(expected.empty()) << "k=" << k << " finds nothing";
  ASSERT_EQ(result.counts.size(), expected.size()) << "k=" << k;
  for (const auto& [pattern, count] : expected) {
    ASSERT_TRUE(result.counts.count(pattern)) << pattern.ToString();
    EXPECT_EQ(result.counts.at(pattern), count) << pattern.ToString();
  }
  EXPECT_EQ(result.counts, baselines::TunedMotifCounts(g, k));
}

TEST(MotifsTest, PatternPathPastEightVerticesMatchesOracles) {
  ExpectMotifsMatchOracles(GenerateRandomGraph(12, 20, 1, 1, 5), 9);
}

TEST(MotifsTest, PatternPathWithTwoEdgeLabelsMatchesOracles) {
  const Graph g = GenerateRandomGraph(12, 28, 2, 2, 41);
  ASSERT_FALSE(g.UniformEdgeLabel().has_value());
  ExpectMotifsMatchOracles(g, 4);
}

// Subgraphs without a wide vertex still take the code path, so one thread
// mixes both paths; the nonzero uniform edge label must survive both.
TEST(MotifsTest, PatternPathWithWideVertexLabelMatchesOracles) {
  const Graph narrow = GenerateRandomGraph(12, 28, 1, 1, 42);
  GraphBuilder builder;
  for (VertexId v = 0; v < narrow.NumVertices(); ++v) {
    builder.AddVertex(v % 3 == 0 ? QuickCode::kMaxLabel + 47 : v % 2);
  }
  for (EdgeId e = 0; e < narrow.NumEdges(); ++e) {
    builder.AddEdge(narrow.Endpoints(e).src, narrow.Endpoints(e).dst,
                    /*label=*/3);
  }
  const Graph g = std::move(builder).Build();
  ASSERT_EQ(g.UniformEdgeLabel(), std::optional<Label>(3));
  ExpectMotifsMatchOracles(g, 4);
}

TEST(CliquesTest, KnownCounts) {
  FractalContext fctx;
  FractalGraph k6 = fctx.FromGraph(testgraphs::Complete(6));
  EXPECT_EQ(CountCliques(k6, 3, SmallCluster()), 20u);
  EXPECT_EQ(CountCliques(k6, 4, SmallCluster()), 15u);
  EXPECT_EQ(CountCliques(k6, 5, SmallCluster()), 6u);
  EXPECT_EQ(CountCliques(k6, 6, SmallCluster()), 1u);

  FractalGraph petersen = fctx.FromGraph(testgraphs::Petersen());
  EXPECT_EQ(CountTriangles(petersen, SmallCluster()), 0u);

  FractalGraph grid = fctx.FromGraph(testgraphs::Grid(3, 3));
  EXPECT_EQ(CountTriangles(grid, SmallCluster()), 0u);
}

TEST(CliquesTest, OptimizedMatchesListing2) {
  for (const uint64_t seed : {51u, 52u, 53u}) {
    const Graph g = GenerateRandomGraph(16, 60, 1, 1, seed);
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(g));
    for (uint32_t k = 3; k <= 5; ++k) {
      const uint64_t expected = brute::CountCliques(g, k);
      EXPECT_EQ(CountCliques(graph, k, SmallCluster()), expected);
      EXPECT_EQ(CountCliquesOptimized(graph, k, SmallCluster()), expected);
    }
  }
}

TEST(CliquesTest, OptimizedDoesLessExtensionWork) {
  const Graph g = GenerateRandomGraph(60, 400, 1, 1, 61);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig single;
  single.num_workers = 1;
  single.threads_per_worker = 1;
  auto generic = CliquesFractoid(graph, 4).Execute(single);
  auto optimized = OptimizedCliquesFractoid(graph, 4).Execute(single);
  EXPECT_EQ(generic.num_subgraphs, optimized.num_subgraphs);
  EXPECT_LT(optimized.telemetry.TotalWorkUnits(),
            generic.telemetry.TotalWorkUnits());
}

TEST(FsmTest, HandVerifiedExample) {
  // LabeledFsmExample: two (0,0,1) triangles joined by a label-2 bridge.
  const Graph g = testgraphs::LabeledFsmExample();
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const FsmResult result = RunFsm(graph, /*min_support=*/2, /*max_edges=*/3,
                                  SmallCluster());
  const auto expected = brute::FsmFrequentPatterns(g, 2, 3);
  std::map<Pattern, uint64_t> got(result.frequent.begin(),
                                  result.frequent.end());
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [pattern, support] : expected) {
    ASSERT_TRUE(got.count(pattern)) << pattern.ToString();
    EXPECT_EQ(got.at(pattern), support) << pattern.ToString();
  }
  // The 0-0 edge (one inside each triangle) is frequent: both positions are
  // automorphic, so each embedding contributes both endpoints to the shared
  // domain {0, 1, 3, 4} -> MNI support 4.
  Pattern edge00;
  edge00.AddVertex(0);
  edge00.AddVertex(0);
  edge00.AddEdge(0, 1);
  EXPECT_EQ(got.at(CanonicalForm(edge00).pattern), 4u);
}

TEST(FsmTest, MatchesBruteForceOnRandomLabeledGraphs) {
  for (const uint64_t seed : {71u, 72u}) {
    const Graph g = GenerateRandomGraph(10, 20, 2, 1, seed);
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(g));
    for (const uint32_t support : {2u, 3u}) {
      const FsmResult result =
          RunFsm(graph, support, /*max_edges=*/3, SmallCluster());
      const auto expected = brute::FsmFrequentPatterns(g, support, 3);
      std::map<Pattern, uint64_t> got(result.frequent.begin(),
                                      result.frequent.end());
      EXPECT_EQ(got.size(), expected.size())
          << "seed=" << seed << " support=" << support;
      for (const auto& [pattern, mni] : expected) {
        ASSERT_TRUE(got.count(pattern)) << pattern.ToString();
        EXPECT_EQ(got.at(pattern), mni) << pattern.ToString();
      }
    }
  }
}

// A sparse graph in a 2^20-vertex id space: a few hundred non-isolated
// vertices scattered over the ids. Supports must match the oracles, and the
// MNI domains must stay runs sized by the embeddings, far below the |V|/8
// bytes of a bitmap.
TEST(FsmTest, SparseIdSpaceKeepsDomainsSmall) {
  constexpr uint32_t kIdSpace = 1u << 20;
  constexpr uint32_t kActive = 240;
  constexpr uint32_t kEdges = 150;
  SplitMix64 rng(97);
  std::vector<VertexId> active;
  std::set<VertexId> chosen;
  while (chosen.size() < kActive) {
    const auto v = static_cast<VertexId>(rng.NextBounded(kIdSpace));
    if (chosen.insert(v).second) active.push_back(v);
  }
  std::vector<Label> labels(kIdSpace, 0);
  for (const VertexId v : active) labels[v] = rng.NextBounded(2);
  GraphBuilder builder;
  for (uint32_t v = 0; v < kIdSpace; ++v) builder.AddVertex(labels[v]);
  std::set<std::pair<VertexId, VertexId>> edges;
  while (edges.size() < kEdges) {
    // Endpoints from a 60-vertex core keep 2- and 3-edge patterns frequent.
    VertexId u = active[rng.NextBounded(60)];
    VertexId v = active[rng.NextBounded(kActive)];
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (edges.emplace(u, v).second) builder.AddEdge(u, v);
  }
  const Graph g = std::move(builder).Build();
  ASSERT_EQ(g.NumVertices(), kIdSpace);

  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const FsmResult result =
      RunFsm(graph, /*min_support=*/2, /*max_edges=*/3, SmallCluster());
  const std::map<Pattern, uint64_t> got(result.frequent.begin(),
                                        result.frequent.end());
  EXPECT_EQ(got, brute::FsmFrequentPatterns(g, 2, 3));
  const auto tuned = baselines::TunedFsm(g, 2, 3);
  const std::map<Pattern, uint64_t> tuned_sorted(tuned.begin(), tuned.end());
  EXPECT_EQ(got, tuned_sorted);
  ASSERT_GT(result.iterations, 2u);

  // Every 3-edge pattern's domains, as the FSM aggregation builds them.
  const ExecutionResult execution =
      graph.EFractoid()
          .Expand(3)
          .AggregateByPattern<DomainSupport>(
              "support", DomainSupport(1, kIdSpace),
              [](DomainSupport& support, const Subgraph& subgraph,
                 const CanonicalResult& canonical, Computation&) {
                support.AddEmbedding(subgraph, canonical);
              },
              [](DomainSupport& into, DomainSupport&& from) {
                into.Merge(std::move(from));
              })
          .Execute(SmallCluster());
  ASSERT_TRUE(execution.status.ok()) << execution.status;
  const auto& storage =
      execution.Aggregation<Pattern, DomainSupport, PatternHash>("support");
  ASSERT_GT(storage.NumEntries(), 0u);
  for (const auto& [pattern, support] : storage.entries()) {
    EXPECT_LT(support.ApproxBytes(),
              pattern.NumVertices() * (kIdSpace / 8) / 32)
        << pattern.ToString();
  }
}

TEST(FsmTest, HigherSupportFindsFewerPatterns) {
  const Graph g = GenerateRandomGraph(30, 70, 3, 1, 81);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  size_t previous = SIZE_MAX;
  for (const uint32_t support : {2u, 4u, 8u}) {
    const FsmResult result = RunFsm(graph, support, 2, SmallCluster());
    EXPECT_LE(result.frequent.size(), previous);
    previous = result.frequent.size();
  }
}

TEST(QueriesTest, SeedQueriesWellFormed) {
  for (uint32_t q = 1; q <= kNumSeedQueries; ++q) {
    const Pattern pattern = SeedQuery(q);
    EXPECT_TRUE(pattern.IsConnected()) << SeedQueryName(q);
    EXPECT_GE(pattern.NumVertices(), 3u);
  }
  EXPECT_TRUE(SeedQuery(4).IsClique());
  EXPECT_TRUE(SeedQuery(5).IsClique());
  EXPECT_EQ(SeedQuery(8).NumEdges(), 9u);  // K5 minus an edge
}

TEST(QueriesTest, MatchesBruteForce) {
  const Graph g = GenerateRandomGraph(13, 36, 1, 1, 91);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  for (uint32_t q = 1; q <= kNumSeedQueries; ++q) {
    const Pattern pattern = SeedQuery(q);
    EXPECT_EQ(CountQueryMatches(graph, pattern, SmallCluster()),
              brute::CountPatternMatches(g, pattern))
        << SeedQueryName(q);
  }
}

TEST(QueriesTest, TriangleQueryAgreesWithCliques) {
  const Graph g = GenerateRandomGraph(25, 90, 1, 1, 95);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  EXPECT_EQ(CountQueryMatches(graph, SeedQuery(1), SmallCluster()),
            CountTriangles(graph, SmallCluster()));
}

TEST(FsmTest, TransparentReductionPreservesResults) {
  for (const uint64_t seed : {201u, 202u, 203u}) {
    const Graph g = GenerateRandomGraph(24, 55, 3, 2, seed);
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(g));
    for (const uint32_t support : {2u, 4u}) {
      FsmOptions plain;
      plain.min_support = support;
      plain.max_edges = 3;
      FsmOptions reducing = plain;
      reducing.transparent_graph_reduction = true;

      const FsmResult base = RunFsmWithOptions(graph, plain, SmallCluster());
      const FsmResult reduced =
          RunFsmWithOptions(graph, reducing, SmallCluster());
      EXPECT_LE(reduced.mined_graph_edges, base.mined_graph_edges);
      std::map<Pattern, uint64_t> base_map(base.frequent.begin(),
                                           base.frequent.end());
      std::map<Pattern, uint64_t> reduced_map(reduced.frequent.begin(),
                                              reduced.frequent.end());
      EXPECT_EQ(base_map, reduced_map)
          << "seed=" << seed << " support=" << support;
    }
  }
}

TEST(FsmTest, TransparentReductionShrinksWorkOnSkewedLabels) {
  // Rare labels make most edges infrequent: the reduced graph is smaller
  // and the mining does less extension work.
  PowerLawParams params;
  params.num_vertices = 600;
  params.edges_per_vertex = 4;
  params.num_vertex_labels = 12;
  params.label_skew = 1.2;  // spread labels -> many infrequent edges
  params.seed = 77;
  const Graph g = GeneratePowerLaw(params);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  FsmOptions plain;
  plain.min_support = 40;
  plain.max_edges = 3;
  FsmOptions reducing = plain;
  reducing.transparent_graph_reduction = true;

  const FsmResult base = RunFsmWithOptions(graph, plain, SmallCluster());
  const FsmResult reduced =
      RunFsmWithOptions(graph, reducing, SmallCluster());
  std::map<Pattern, uint64_t> base_map(base.frequent.begin(),
                                       base.frequent.end());
  std::map<Pattern, uint64_t> reduced_map(reduced.frequent.begin(),
                                          reduced.frequent.end());
  EXPECT_EQ(base_map, reduced_map);
  EXPECT_LT(reduced.mined_graph_edges, g.NumEdges() / 2);
}

Graph SmallAttributedGraph() {
  // Path 0-1-2-3 with keywords: edges carry distinct topic keywords.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex(0);
  const EdgeId e01 = b.AddEdge(0, 1);
  const EdgeId e12 = b.AddEdge(1, 2);
  const EdgeId e23 = b.AddEdge(2, 3);
  b.SetEdgeKeywords(e01, {100});
  b.SetEdgeKeywords(e12, {200});
  b.SetEdgeKeywords(e23, {100, 200});
  b.SetVertexKeywords(0, {300});
  return std::move(b).Build();
}

TEST(KeywordSearchTest, InvertedIndexCoversEndpointKeywords) {
  const Graph g = SmallAttributedGraph();
  const InvertedIndex index(g);
  // Edge (0,1) contains 100 directly and 300 via endpoint 0.
  EXPECT_TRUE(index.EdgeContains(100, 0));
  EXPECT_TRUE(index.EdgeContains(300, 0));
  EXPECT_FALSE(index.EdgeContains(200, 0));
  EXPECT_EQ(index.EdgesWithKeyword(200).size(), 2u);
}

TEST(KeywordSearchTest, FindsCoveringSubgraphs) {
  const Graph g = SmallAttributedGraph();
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const std::vector<uint32_t> query = {100, 200};
  const KeywordSearchResult result =
      RunKeywordSearch(graph, query, /*use_graph_reduction=*/false,
                       SmallCluster());
  // Connected 2-edge covering subgraphs where, in enumeration order, every
  // added edge contributed a keyword not seen before (Listing 4's
  // candidate-retrieval semantics): {e01,e12} (100 then 200) and {e12,e23}
  // (200 then 100). {e01,e23} is disconnected and never enumerated.
  EXPECT_EQ(result.num_matches, 2u);
}

TEST(KeywordSearchTest, ReductionPreservesResults) {
  const Graph g = AttachKeywords(GenerateRandomGraph(60, 150, 1, 1, 7),
                                 /*vocabulary_size=*/50, 1, 3, 2.0, 99);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const std::vector<uint32_t> query = {3, 17};
  const KeywordSearchResult full =
      RunKeywordSearch(graph, query, false, SmallCluster());
  const KeywordSearchResult reduced =
      RunKeywordSearch(graph, query, true, SmallCluster());
  EXPECT_EQ(full.num_matches, reduced.num_matches);
  EXPECT_LE(reduced.graph_edges, full.graph_edges);
  EXPECT_LE(reduced.extension_cost, full.extension_cost);
}

}  // namespace
}  // namespace fractal
