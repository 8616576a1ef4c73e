#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/adjacency.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/graph_reduce.h"
#include "graph/inverted_index.h"
#include "graph/test_graphs.h"
#include "util/random.h"

namespace fractal {
namespace {

TEST(GraphBuilderTest, BuildsCsr) {
  GraphBuilder b;
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddVertex(3);
  const EdgeId e0 = b.AddEdge(0, 1, 7);
  const EdgeId e1 = b.AddEdge(2, 1, 8);
  const Graph g = std::move(b).Build();

  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.VertexLabel(2), 3u);
  EXPECT_EQ(g.GetEdgeLabel(e0), 7u);
  EXPECT_EQ(g.GetEdgeLabel(e1), 8u);
  // Endpoints canonicalized: src < dst.
  EXPECT_EQ(g.Endpoints(e1).src, 1u);
  EXPECT_EQ(g.Endpoints(e1).dst, 2u);
  EXPECT_EQ(g.Endpoints(e1).Other(1), 2u);
  // Adjacency sorted.
  const auto neighbors = g.Neighbors(1);
  EXPECT_EQ(std::vector<VertexId>(neighbors.begin(), neighbors.end()),
            (std::vector<VertexId>{0, 2}));
  EXPECT_TRUE(g.IsAdjacent(0, 1));
  EXPECT_FALSE(g.IsAdjacent(0, 2));
  EXPECT_EQ(g.EdgeBetween(1, 2), e1);
  EXPECT_EQ(g.EdgeBetween(0, 2), std::nullopt);
  EXPECT_EQ(g.NumLabels(), 5u);  // vertex labels 1,2,3 + edge labels 7,8
  EXPECT_EQ(g.AdjacencySize(), 4u);
}

TEST(GraphTest, DensityMatchesFormula) {
  const Graph g = testgraphs::Complete(5);
  EXPECT_DOUBLE_EQ(g.Density(), 1.0);
  const Graph path = testgraphs::Path(5);
  EXPECT_DOUBLE_EQ(path.Density(), 2.0 * 4 / (5 * 4));
}

TEST(GraphTest, IncidentEdgesParallelToNeighbors) {
  const Graph g = testgraphs::Cycle(4);
  for (VertexId v = 0; v < 4; ++v) {
    const auto neighbors = g.Neighbors(v);
    const auto edges = g.IncidentEdges(v);
    ASSERT_EQ(neighbors.size(), edges.size());
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_EQ(g.Endpoints(edges[i]).Other(v), neighbors[i]);
    }
  }
}

TEST(GraphIoTest, ParseAdjacencyList) {
  const std::string text =
      "# comment\n"
      "0 10 1 2\n"
      "1 11 0\n"
      "2 12 0 3:5\n"
      "3 13 2:5\n";
  auto graph = ParseAdjacencyList(text);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->NumVertices(), 4u);
  EXPECT_EQ(graph->NumEdges(), 3u);
  EXPECT_EQ(graph->VertexLabel(3), 13u);
  const auto edge = graph->EdgeBetween(2, 3);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(graph->GetEdgeLabel(*edge), 5u);
}

TEST(GraphIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseAdjacencyList("5 0\n").ok());       // non-dense ids
  EXPECT_FALSE(ParseAdjacencyList("0\n").ok());         // missing label
  EXPECT_FALSE(ParseAdjacencyList("0 0 9\n").ok());     // neighbor range
  EXPECT_FALSE(ParseAdjacencyList("0 0 0\n").ok());     // self loop
  EXPECT_FALSE(ParseAdjacencyList("0 x\n").ok());       // bad integer
}

TEST(GraphIoTest, RoundTrip) {
  PowerLawParams params;
  params.num_vertices = 80;
  params.edges_per_vertex = 3;
  params.num_vertex_labels = 4;
  params.num_edge_labels = 3;
  params.seed = 5;
  const Graph g = GeneratePowerLaw(params);
  auto reparsed = ParseAdjacencyList(WriteAdjacencyList(g));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->NumVertices(), g.NumVertices());
  ASSERT_EQ(reparsed->NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(reparsed->VertexLabel(v), g.VertexLabel(v));
    const auto a = g.Neighbors(v);
    const auto b = reparsed->Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto original = g.EdgeBetween(g.Endpoints(e).src, g.Endpoints(e).dst);
    const auto roundtrip =
        reparsed->EdgeBetween(g.Endpoints(e).src, g.Endpoints(e).dst);
    ASSERT_TRUE(roundtrip.has_value());
    EXPECT_EQ(reparsed->GetEdgeLabel(*roundtrip), g.GetEdgeLabel(*original));
  }
}

TEST(GeneratorTest, PowerLawShape) {
  PowerLawParams params;
  params.num_vertices = 2000;
  params.edges_per_vertex = 4;
  params.seed = 11;
  const Graph g = GeneratePowerLaw(params);
  EXPECT_EQ(g.NumVertices(), 2000u);
  // |E| ~ m * V (minus the seed clique adjustment).
  EXPECT_NEAR(g.NumEdges(), 4.0 * 2000, 300);
  // Heavy tail: max degree far above the mean.
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
  }
  const double mean_degree = 2.0 * g.NumEdges() / g.NumVertices();
  EXPECT_GT(max_degree, 8 * mean_degree);
  // Determinism.
  const Graph g2 = GeneratePowerLaw(params);
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
}

TEST(GeneratorTest, RandomGraphExactEdgeCount) {
  const Graph g = GenerateRandomGraph(50, 200, 3, 2, 17);
  EXPECT_EQ(g.NumVertices(), 50u);
  EXPECT_EQ(g.NumEdges(), 200u);
  for (VertexId v = 0; v < 50; ++v) EXPECT_LT(g.VertexLabel(v), 3u);
}

TEST(GeneratorTest, AttachKeywordsPreservesStructure) {
  const Graph base = GenerateRandomGraph(40, 100, 2, 2, 23);
  const Graph g = AttachKeywords(Graph(base), 30, 1, 3, 2.0, 7);
  EXPECT_TRUE(g.HasKeywords());
  EXPECT_EQ(g.NumEdges(), base.NumEdges());
  EXPECT_LE(g.KeywordVocabularySize(), 30u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto keywords = g.VertexKeywords(v);
    EXPECT_GE(keywords.size(), 1u);
    EXPECT_LE(keywords.size(), 3u);
    EXPECT_TRUE(std::is_sorted(keywords.begin(), keywords.end()));
  }
}

TEST(ReduceTest, EdgeFilterDropsEdges) {
  const Graph g = testgraphs::Complete(4);
  const Graph reduced = ReduceGraph(
      g, nullptr, [](const Graph& graph, EdgeId e) {
        return graph.Endpoints(e).src != 0;  // drop edges at vertex 0
      });
  EXPECT_EQ(reduced.NumVertices(), 4u);
  EXPECT_EQ(reduced.NumEdges(), 3u);  // triangle on {1,2,3}
  EXPECT_EQ(reduced.Degree(0), 0u);
  EXPECT_TRUE(reduced.IsVertexActive(0));  // kept: no vertex filter applied
}

TEST(ReduceTest, VertexFilterMasksAndDropsIncidentEdges) {
  const Graph g = testgraphs::Cycle(5);
  const Graph reduced = ReduceGraph(
      g, [](const Graph&, VertexId v) { return v != 2; }, nullptr);
  EXPECT_FALSE(reduced.IsVertexActive(2));
  EXPECT_EQ(reduced.NumActiveVertices(), 4u);
  EXPECT_EQ(reduced.NumEdges(), 3u);
  EXPECT_EQ(reduced.Degree(2), 0u);
  // Labels survive.
  EXPECT_EQ(reduced.VertexLabel(2), g.VertexLabel(2));
}

TEST(ReduceTest, KeywordReductionKeepsCoveringElements) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(0);
  const EdgeId e01 = b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const EdgeId e34 = b.AddEdge(3, 4);
  b.SetEdgeKeywords(e01, {5});
  b.SetEdgeKeywords(e34, {9});
  const Graph g = std::move(b).Build();
  const std::vector<uint32_t> query = {5};
  const Graph reduced = ReduceToKeywords(g, query);
  EXPECT_EQ(reduced.NumEdges(), 1u);
  EXPECT_TRUE(reduced.IsVertexActive(0));
  EXPECT_TRUE(reduced.IsVertexActive(1));
  EXPECT_FALSE(reduced.IsVertexActive(3));
}

TEST(InvertedIndexTest, PostingsSortedAndComplete) {
  const Graph g = AttachKeywords(GenerateRandomGraph(30, 60, 1, 1, 29),
                                 20, 1, 2, 1.5, 31);
  const InvertedIndex index(g);
  uint64_t total_postings = 0;
  for (uint32_t keyword = 0; keyword < index.VocabularySize(); ++keyword) {
    const auto postings = index.EdgesWithKeyword(keyword);
    EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
    total_postings += postings.size();
    for (const EdgeId e : postings) {
      EXPECT_TRUE(index.EdgeContains(keyword, e));
    }
  }
  EXPECT_GT(total_postings, 0u);
  // Spot check membership against raw keyword data.
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    for (const uint32_t keyword : g.EdgeKeywords(e)) {
      EXPECT_TRUE(index.EdgeContains(keyword, e));
    }
  }
}

TEST(DatasetsTest, Table1AnalogsAreDeterministicAndLabeled) {
  const auto datasets = MakeTable1Datasets(LabelMode::kMultiLabel);
  ASSERT_EQ(datasets.size(), 4u);
  EXPECT_EQ(datasets[0].name, "Mico-ML");
  for (const auto& d : datasets) {
    EXPECT_GT(d.graph.NumVertices(), 0u);
    EXPECT_GT(d.graph.NumEdges(), 0u);
  }
  // -SL variants carry a single vertex label.
  const auto mico_sl = MakeDataset(DatasetId::kMico, LabelMode::kSingleLabel);
  std::set<Label> labels;
  for (VertexId v = 0; v < mico_sl.graph.NumVertices(); ++v) {
    labels.insert(mico_sl.graph.VertexLabel(v));
  }
  EXPECT_EQ(labels.size(), 1u);
  // Determinism across calls.
  const auto again = MakeDataset(DatasetId::kMico, LabelMode::kSingleLabel);
  EXPECT_EQ(again.graph.NumEdges(), mico_sl.graph.NumEdges());
}

TEST(DatasetsTest, WikidataKeywordsAttached) {
  const Graph g = MakeWikidataWithKeywords();
  EXPECT_TRUE(g.HasKeywords());
  EXPECT_GT(g.KeywordVocabularySize(), 100u);
}

TEST(TestGraphsTest, PaperFigure1Shape) {
  const Graph g = testgraphs::PaperFigure1();
  EXPECT_EQ(g.NumVertices(), 7u);
  EXPECT_EQ(g.NumEdges(), 10u);
  EXPECT_EQ(g.Degree(4), 3u);
  EXPECT_EQ(g.Degree(5), 2u);
  EXPECT_EQ(g.Degree(6), 1u);
}

TEST(TestGraphsTest, PetersenProperties) {
  const Graph g = testgraphs::Petersen();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.NumEdges(), 15u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(g.Degree(v), 3u);
}

TEST(GraphBuilderTest, HasEdgeAgainstSortedPendingLists) {
  // Edges inserted in shuffled order: the pending lists must stay sorted so
  // HasEdge's binary search answers correctly throughout the build.
  GraphBuilder b;
  for (uint32_t v = 0; v < 40; ++v) b.AddVertex(0);
  SplitMix64 rng(99);
  std::set<std::pair<VertexId, VertexId>> added;
  for (int i = 0; i < 200; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(40));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(40));
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (added.count(key)) {
      EXPECT_TRUE(b.HasEdge(u, v));
      continue;
    }
    EXPECT_FALSE(b.HasEdge(u, v));
    b.AddEdge(u, v);
    added.insert(key);
  }
  const Graph g = std::move(b).Build();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto neighbors = g.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
  }
}

TEST(GraphTest, NumActiveVerticesCachedAtBuild) {
  const Graph full = GenerateRandomGraph(30, 60, 1, 1, 11);
  EXPECT_EQ(full.NumActiveVertices(), 30u);
  const Graph reduced = ReduceGraph(
      full, [](const Graph&, VertexId v) { return v % 3 != 0; }, nullptr);
  uint32_t expected = 0;
  for (VertexId v = 0; v < reduced.NumVertices(); ++v) {
    if (reduced.IsVertexActive(v)) ++expected;
  }
  EXPECT_EQ(reduced.NumActiveVertices(), expected);
  EXPECT_LT(reduced.NumActiveVertices(), reduced.NumVertices());
}

TEST(GraphTest, HubBitmapMatchesAdjacencyLists) {
  // Vertex 0 is connected to everything -> degree 99 >= threshold 64.
  GraphBuilder b;
  for (uint32_t v = 0; v < 100; ++v) b.AddVertex(0);
  for (uint32_t v = 1; v < 100; ++v) b.AddEdge(0, v);
  SplitMix64 rng(7);
  for (int i = 0; i < 150; ++i) {
    const VertexId u = 1 + static_cast<VertexId>(rng.NextBounded(99));
    const VertexId v = 1 + static_cast<VertexId>(rng.NextBounded(99));
    if (u == v || b.HasEdge(u, v)) continue;
    b.AddEdge(u, v);
  }
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.HubDegreeThreshold(), 64u);
  ASSERT_GE(g.NumHubs(), 1u);
  ASSERT_NE(g.HubRow(0), nullptr);
  // IsAdjacent (bitmap-accelerated for pairs touching vertex 0) must agree
  // with the CSR ground truth for every pair, both directions.
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const bool is_hub = g.Degree(u) >= g.HubDegreeThreshold();
    EXPECT_EQ(g.HubRow(u) != nullptr, is_hub) << u;
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      const bool expected = g.EdgeBetween(u, v).has_value();
      EXPECT_EQ(g.IsAdjacent(u, v), expected) << u << "," << v;
      EXPECT_EQ(g.IsAdjacent(v, u), expected) << v << "," << u;
    }
  }
}

TEST(GraphTest, NoHubsOnSparseGraph) {
  const Graph g = testgraphs::Petersen();
  EXPECT_EQ(g.NumHubs(), 0u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(g.HubRow(v), nullptr);
  }
}

// ===== Set-algebra kernels (graph/adjacency.h) =============================

std::vector<uint32_t> SortedRandomSet(SplitMix64& rng, size_t size,
                                      uint32_t universe) {
  std::set<uint32_t> values;
  while (values.size() < size) {
    values.insert(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  return {values.begin(), values.end()};
}

TEST(AdjacencyKernelTest, MatchesStdAlgorithmsAcrossSizeRatios) {
  SplitMix64 rng(1234);
  // Size pairs chosen to land on both sides of the merge/gallop crossover.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 10}, {10, 0}, {5, 7},  {30, 31},  {4, 400},
      {400, 4}, {1, 500}, {64, 64}, {3, 1000}, {1000, 3}};
  for (const auto& [size_a, size_b] : shapes) {
    const std::vector<uint32_t> a = SortedRandomSet(rng, size_a, 2000);
    const std::vector<uint32_t> b = SortedRandomSet(rng, size_b, 2000);
    std::vector<uint32_t> expected_intersection;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected_intersection));
    std::vector<uint32_t> expected_difference;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected_difference));
    std::vector<uint32_t> got;
    adjacency::Intersect(a, b, &got);
    EXPECT_EQ(got, expected_intersection) << size_a << "x" << size_b;
    got.clear();
    adjacency::Difference(a, b, &got);
    EXPECT_EQ(got, expected_difference) << size_a << "x" << size_b;

    const uint32_t bound = 1000;
    auto above = [bound](const std::vector<uint32_t>& v) {
      std::vector<uint32_t> r;
      for (const uint32_t x : v) {
        if (x > bound) r.push_back(x);
      }
      return r;
    };
    got.clear();
    adjacency::IntersectAbove(a, b, bound, &got);
    EXPECT_EQ(got, above(expected_intersection)) << size_a << "x" << size_b;
    got.clear();
    adjacency::DifferenceAbove(a, b, bound, &got);
    EXPECT_EQ(got, above(expected_difference)) << size_a << "x" << size_b;
    got.clear();
    adjacency::CopyAbove(a, bound, &got);
    EXPECT_EQ(got, above(a)) << size_a << "x" << size_b;
  }
}

TEST(AdjacencyKernelTest, LocateMatchesLowerBoundAcrossSizeRatios) {
  SplitMix64 rng(4321);
  // Both sides of the merge/gallop crossover, with needles drawn half from
  // the haystack (hits) and half at random (mostly misses).
  const std::pair<size_t, size_t> shapes[] = {
      {0, 10}, {10, 0}, {5, 7}, {30, 31}, {4, 400}, {400, 4}, {1, 500},
      {64, 64}, {3, 1000}, {200, 1000}};
  for (const auto& [num_needles, num_haystack] : shapes) {
    const std::vector<uint32_t> haystack =
        SortedRandomSet(rng, num_haystack, 2000);
    std::set<uint32_t> picked;
    while (picked.size() < num_needles) {
      picked.insert(rng.NextBounded(2) == 0 && !haystack.empty()
                        ? haystack[rng.NextBounded(haystack.size())]
                        : static_cast<uint32_t>(rng.NextBounded(2000)));
    }
    const std::vector<uint32_t> needles(picked.begin(), picked.end());
    // Strided output: column 1 of a 3-wide table, the rest untouched.
    constexpr size_t kStride = 3;
    std::vector<uint32_t> table(needles.size() * kStride, 7);
    adjacency::Locate(needles, haystack, table.data() + 1, kStride);
    for (size_t i = 0; i < needles.size(); ++i) {
      const auto it =
          std::lower_bound(haystack.begin(), haystack.end(), needles[i]);
      const uint32_t expected =
          it != haystack.end() && *it == needles[i]
              ? static_cast<uint32_t>(it - haystack.begin())
              : adjacency::kNotFound;
      EXPECT_EQ(table[i * kStride + 1], expected)
          << num_needles << "x" << num_haystack << " needle " << needles[i];
      EXPECT_EQ(table[i * kStride], 7u);
      EXPECT_EQ(table[i * kStride + 2], 7u);
    }
  }
}

TEST(AdjacencyKernelTest, AppendsWithoutClearing) {
  const std::vector<uint32_t> a = {1, 3, 5};
  const std::vector<uint32_t> b = {3, 5, 7};
  std::vector<uint32_t> out = {42};
  adjacency::Intersect(a, b, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{42, 3, 5}));
}

TEST(AdjacencyKernelTest, GallopLowerBoundFindsFirstNotLess) {
  const std::vector<uint32_t> haystack = {2, 4, 4, 8, 16, 32, 64, 100};
  for (size_t begin = 0; begin < haystack.size(); ++begin) {
    for (uint32_t needle = 0; needle <= 101; ++needle) {
      const size_t expected = static_cast<size_t>(
          std::lower_bound(haystack.begin() + begin, haystack.end(), needle) -
          haystack.begin());
      EXPECT_EQ(adjacency::GallopLowerBound(haystack, begin, needle),
                expected)
          << "begin=" << begin << " needle=" << needle;
    }
  }
}

}  // namespace
}  // namespace fractal
