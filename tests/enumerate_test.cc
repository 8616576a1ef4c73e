#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "enumerate/enumerator.h"
#include "enumerate/extension.h"
#include "enumerate/scratch_arena.h"
#include "enumerate/subgraph.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "pattern/canonical.h"
#include "runtime/codec.h"
#include "tests/brute_force.h"

namespace fractal {
namespace {

/// Reference single-thread DFS driver over a strategy: counts (and
/// optionally collects) all depth-k subgraphs.
struct DfsDriver {
  const Graph& graph;
  const ExtensionStrategy& strategy;
  uint32_t target_depth;
  ExtensionContext ctx{};
  uint64_t count = 0;
  std::set<std::vector<VertexId>> seen_vertex_sets{};
  std::set<std::vector<EdgeId>> seen_edge_sets{};

  void Run() {
    Subgraph subgraph;
    Recurse(subgraph);
  }

  void Recurse(Subgraph& subgraph) {
    if (subgraph.Depth() == target_depth) {
      ++count;
      std::vector<VertexId> vertices(subgraph.Vertices().begin(),
                                     subgraph.Vertices().end());
      std::sort(vertices.begin(), vertices.end());
      EXPECT_TRUE(seen_vertex_sets.insert(vertices).second ||
                  !subgraph.Edges().empty())
          << "duplicate vertex set";
      std::vector<EdgeId> edges(subgraph.Edges().begin(),
                                subgraph.Edges().end());
      std::sort(edges.begin(), edges.end());
      if (!edges.empty()) {
        EXPECT_TRUE(seen_edge_sets.insert(edges).second)
            << "duplicate subgraph " << subgraph.ToString();
      }
      return;
    }
    std::vector<uint32_t> extensions;
    std::vector<EdgeId> rows;
    strategy.ComputeExtensions(graph, subgraph, ctx, &extensions, &rows);
    const size_t width =
        extensions.empty() ? 0 : rows.size() / extensions.size();
    for (size_t i = 0; i < extensions.size(); ++i) {
      strategy.Apply(graph, extensions[i],
                     std::span<const EdgeId>(rows.data() + i * width, width),
                     &subgraph);
      Recurse(subgraph);
      strategy.Undo(graph, &subgraph);
    }
  }
};

TEST(SubgraphTest, MembershipBitsTrackPushPopCopyAndClear) {
  const Graph g = testgraphs::Complete(6);
  Subgraph s;
  s.PushVertexInduced(g, 1);
  s.PushVertexInduced(g, 4);
  EXPECT_TRUE(s.ContainsVertex(1));
  EXPECT_TRUE(s.ContainsVertex(4));
  EXPECT_FALSE(s.ContainsVertex(0));
  EXPECT_TRUE(s.ContainsEdge(*g.EdgeBetween(1, 4)));
  EXPECT_FALSE(s.ContainsEdge(*g.EdgeBetween(0, 1)));

  // Copy construction rebuilds bits in the copy.
  const Subgraph copy(s);
  EXPECT_TRUE(copy.ContainsVertex(4));
  EXPECT_FALSE(copy.ContainsVertex(2));

  // Copy assignment clears the target's old bits before adopting.
  Subgraph other;
  other.PushVertexInduced(g, 0);
  other.PushVertexInduced(g, 2);
  other = s;
  EXPECT_FALSE(other.ContainsVertex(0));
  EXPECT_FALSE(other.ContainsVertex(2));
  EXPECT_TRUE(other.ContainsVertex(1));
  EXPECT_TRUE(other.ContainsVertex(4));

  s.Pop();
  EXPECT_FALSE(s.ContainsVertex(4));
  EXPECT_FALSE(s.ContainsEdge(*g.EdgeBetween(1, 4)));
  EXPECT_TRUE(s.ContainsVertex(1));

  other.Clear();
  EXPECT_FALSE(other.ContainsVertex(1));
  EXPECT_TRUE(other.Empty());
}

TEST(ScratchArenaTest, BuffersRecycleThroughThePool) {
  ScratchArena arena;
  std::vector<uint32_t>* first = arena.Acquire();
  first->assign(100, 7);
  EXPECT_EQ(arena.live_buffers(), 1u);
  arena.Release(first);
  EXPECT_EQ(arena.live_buffers(), 0u);
  // Reacquire: same node, cleared, capacity kept.
  std::vector<uint32_t>* second = arena.Acquire();
  EXPECT_EQ(second, first);
  EXPECT_TRUE(second->empty());
  EXPECT_GE(second->capacity(), 100u);
  EXPECT_EQ(arena.total_buffers(), 1u);
  {
    ScratchArena::BufferLease lease(arena);
    EXPECT_EQ(arena.live_buffers(), 2u);
    lease->push_back(1);
    EXPECT_EQ((*lease)[0], 1u);
  }
  EXPECT_EQ(arena.live_buffers(), 1u);
  arena.Release(second);
}

TEST(ScratchArenaTest, StampedMapResetIsLogicalClear) {
  ScratchArena::StampedMap map;
  map.Reset(10);
  EXPECT_EQ(map.Get(3), ScratchArena::StampedMap::kAbsent);
  map.Set(3, 42);
  map.Set(9, 0);
  EXPECT_EQ(map.Get(3), 42u);
  EXPECT_EQ(map.Get(9), 0u);
  map.Reset(10);  // O(1): epoch bump, no storage wipe
  EXPECT_EQ(map.Get(3), ScratchArena::StampedMap::kAbsent);
  EXPECT_EQ(map.Get(9), ScratchArena::StampedMap::kAbsent);
  map.Reset(20);  // grows
  map.Set(19, 5);
  EXPECT_EQ(map.Get(19), 5u);
  EXPECT_EQ(map.Get(3), ScratchArena::StampedMap::kAbsent);
}

TEST(SubgraphTest, VertexInducedPushPop) {
  const Graph g = testgraphs::Complete(4);
  Subgraph s;
  s.PushVertexInduced(g, 0);
  EXPECT_EQ(s.NumVertices(), 1u);
  EXPECT_EQ(s.NumEdges(), 0u);
  s.PushVertexInduced(g, 2);
  EXPECT_EQ(s.NumEdges(), 1u);
  s.PushVertexInduced(g, 3);
  EXPECT_EQ(s.NumEdges(), 3u);  // induced: edges to both previous vertices
  EXPECT_TRUE(s.ContainsVertex(2));
  EXPECT_FALSE(s.ContainsVertex(1));
  s.Pop();
  EXPECT_EQ(s.NumVertices(), 2u);
  EXPECT_EQ(s.NumEdges(), 1u);
  s.Pop();
  s.Pop();
  EXPECT_TRUE(s.Empty());
}

TEST(SubgraphTest, EdgeInducedPushPop) {
  const Graph g = testgraphs::Path(4);  // edges 0:(0,1) 1:(1,2) 2:(2,3)
  Subgraph s;
  s.PushEdgeInduced(g, 0);
  EXPECT_EQ(s.NumVertices(), 2u);
  s.PushEdgeInduced(g, 1);
  EXPECT_EQ(s.NumVertices(), 3u);
  EXPECT_EQ(s.NumEdges(), 2u);
  s.Pop();
  EXPECT_EQ(s.NumVertices(), 2u);
  EXPECT_EQ(s.NumEdges(), 1u);
}

TEST(SubgraphTest, QuickPatternReflectsLabelsAndEdges) {
  GraphBuilder b;
  b.AddVertex(7);
  b.AddVertex(8);
  b.AddVertex(9);
  b.AddEdge(0, 1, 3);
  b.AddEdge(1, 2, 4);
  const Graph g = std::move(b).Build();
  Subgraph s;
  s.PushVertexInduced(g, 1);
  s.PushVertexInduced(g, 2);
  s.PushVertexInduced(g, 0);
  const Pattern quick = s.QuickPattern(g);
  EXPECT_EQ(quick.NumVertices(), 3u);
  EXPECT_EQ(quick.VertexLabel(0), 8u);
  EXPECT_EQ(quick.VertexLabel(1), 9u);
  EXPECT_EQ(quick.VertexLabel(2), 7u);
  EXPECT_TRUE(quick.IsAdjacent(0, 1));
  EXPECT_EQ(quick.EdgeLabelBetween(0, 1), 4u);
  EXPECT_TRUE(quick.IsAdjacent(0, 2));
  EXPECT_EQ(quick.EdgeLabelBetween(0, 2), 3u);
  EXPECT_FALSE(quick.IsAdjacent(1, 2));
}

// The quick code is kept by pushes and pops, not carried by the steal wire
// format: a decoded prefix reports an unfit code until it is rebuilt
// against the graph, and the rebuilt code (edge-only undo positions
// included) equals the original's.
TEST(SubgraphTest, QuickCodeRebuiltAfterCodecRoundTrip) {
  const Graph g = testgraphs::Complete(4);  // one edge label, label 0
  Subgraph original;
  original.PushEdgeInduced(g, *g.EdgeBetween(0, 1));
  original.PushEdgeInduced(g, *g.EdgeBetween(1, 2));
  original.PushEdgeInduced(g, *g.EdgeBetween(0, 2));  // edge-only push
  original.PushEdgeInduced(g, *g.EdgeBetween(2, 3));
  const std::optional<QuickCode> code = original.FittingQuickCode(g);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(Pattern::FromQuickCode(*code, 0), original.QuickPattern(g));

  ByteWriter writer;
  SubgraphCodec::EncodeSubgraph(original, &writer);
  const std::vector<uint8_t> bytes = std::move(writer).Take();
  ByteReader reader(bytes);
  Subgraph decoded;
  ASSERT_TRUE(SubgraphCodec::DecodeSubgraph(&reader, &decoded));
  ASSERT_TRUE(decoded == original);
  EXPECT_FALSE(decoded.FittingQuickCode(g).has_value());
  decoded.RebuildQuickCode(g);
  EXPECT_EQ(decoded.FittingQuickCode(g), code);

  // Popping back to the edge-only push exercises its rebuilt undo record.
  original.Pop();
  decoded.Pop();
  original.Pop();
  decoded.Pop();
  ASSERT_TRUE(decoded.FittingQuickCode(g).has_value());
  EXPECT_EQ(decoded.FittingQuickCode(g), original.FittingQuickCode(g));
  EXPECT_EQ(Pattern::FromQuickCode(*decoded.FittingQuickCode(g), 0),
            decoded.QuickPattern(g));
}

TEST(VertexInducedTest, PaperFigure1Extensions) {
  const Graph g = testgraphs::PaperFigure1();
  // Build the figure's current subgraph {v0..v3} (the 4-cycle).
  Subgraph s;
  for (VertexId v : {0u, 1u, 2u, 3u}) s.PushVertexInduced(g, v);
  ASSERT_EQ(s.NumEdges(), 4u);

  // Vertex-induced extensions: v4, v5, v6 (3 of them, as in Figure 1).
  VertexInducedStrategy vertex_strategy;
  ExtensionContext ctx;
  std::vector<uint32_t> extensions;
  vertex_strategy.ComputeExtensions(g, s, ctx, &extensions, nullptr);
  EXPECT_EQ(std::set<uint32_t>(extensions.begin(), extensions.end()),
            (std::set<uint32_t>{4, 5, 6}));

  // Edge-induced extensions of the same subgraph built edge-by-edge: the 6
  // incident edges e5..e10 (ids 4..9), as in Figure 1.
  Subgraph es;
  for (EdgeId e : {0u, 1u, 2u, 3u}) es.PushEdgeInduced(g, e);
  EdgeInducedStrategy edge_strategy;
  edge_strategy.ComputeExtensions(g, es, ctx, &extensions, nullptr);
  EXPECT_EQ(std::set<uint32_t>(extensions.begin(), extensions.end()),
            (std::set<uint32_t>{4, 5, 6, 7, 8, 9}));
}

struct RandomGraphCase {
  uint32_t vertices;
  uint32_t edges;
  uint64_t seed;
};

class VertexEnumerationProperty
    : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(VertexEnumerationProperty, MatchesBruteForceAllDepths) {
  const RandomGraphCase param = GetParam();
  const Graph g = GenerateRandomGraph(param.vertices, param.edges, 1, 1,
                                      param.seed);
  VertexInducedStrategy strategy;
  for (uint32_t k = 1; k <= 5; ++k) {
    DfsDriver driver{.graph = g, .strategy = strategy, .target_depth = k};
    driver.Run();
    EXPECT_EQ(driver.count, brute::CountConnectedVertexSets(g, k))
        << "k=" << k << " seed=" << param.seed;
    // Uniqueness of every enumerated vertex set is asserted inside Recurse.
    EXPECT_EQ(driver.seen_vertex_sets.size(), driver.count);
  }
}

class EdgeEnumerationProperty
    : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(EdgeEnumerationProperty, MatchesBruteForceAllDepths) {
  const RandomGraphCase param = GetParam();
  const Graph g = GenerateRandomGraph(param.vertices, param.edges, 1, 1,
                                      param.seed);
  EdgeInducedStrategy strategy;
  for (uint32_t k = 1; k <= 4; ++k) {
    DfsDriver driver{.graph = g, .strategy = strategy, .target_depth = k};
    driver.Run();
    EXPECT_EQ(driver.count, brute::CountConnectedEdgeSets(g, k))
        << "k=" << k << " seed=" << param.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, VertexEnumerationProperty,
    ::testing::Values(RandomGraphCase{8, 10, 1}, RandomGraphCase{8, 16, 2},
                      RandomGraphCase{10, 12, 3}, RandomGraphCase{10, 25, 4},
                      RandomGraphCase{12, 18, 5}, RandomGraphCase{12, 30, 6},
                      RandomGraphCase{6, 15, 7}, RandomGraphCase{14, 20, 8}));

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EdgeEnumerationProperty,
    ::testing::Values(RandomGraphCase{8, 10, 11}, RandomGraphCase{8, 14, 12},
                      RandomGraphCase{10, 12, 13}, RandomGraphCase{10, 18, 14},
                      RandomGraphCase{12, 16, 15}, RandomGraphCase{7, 12, 16}));

TEST(KClistTest, MatchesBruteForceCliques) {
  for (const uint64_t seed : {21u, 22u, 23u, 24u}) {
    const Graph g = GenerateRandomGraph(12, 34, 1, 1, seed);
    KClistStrategy strategy;
    for (uint32_t k = 1; k <= 5; ++k) {
      DfsDriver driver{.graph = g, .strategy = strategy, .target_depth = k};
      driver.Run();
      EXPECT_EQ(driver.count, brute::CountCliques(g, k))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(KClistTest, CompleteGraphBinomials) {
  const Graph g = testgraphs::Complete(7);
  KClistStrategy strategy;
  const uint64_t expected[] = {1, 7, 21, 35, 35, 21, 7, 1};
  for (uint32_t k = 1; k <= 7; ++k) {
    DfsDriver driver{.graph = g, .strategy = strategy, .target_depth = k};
    driver.Run();
    EXPECT_EQ(driver.count, expected[k]) << "k=" << k;
  }
}

class PatternEnumerationProperty
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PatternEnumerationProperty, SeedLikeQueriesMatchBruteForce) {
  // Unlabeled structural queries on random graphs.
  const uint32_t which = GetParam();
  Pattern query;
  switch (which) {
    case 0:
      query = Pattern::Clique(3);
      break;
    case 1:
      query = Pattern::CyclePattern(4);
      break;
    case 2:
      query = Pattern::Clique(4);
      break;
    case 3:
      query = Pattern::PathPattern(4);
      break;
    case 4:
      query = Pattern::StarPattern(4);
      break;
    default: {
      query = Pattern::CyclePattern(4);
      query.AddEdge(0, 2);  // diamond
      break;
    }
  }
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const Graph g = GenerateRandomGraph(11, 26, 1, 1, seed);
    PatternInducedStrategy strategy(query);
    DfsDriver driver{.graph = g, .strategy = strategy, .target_depth = query.NumVertices()};
    driver.Run();
    EXPECT_EQ(driver.count, brute::CountPatternMatches(g, query))
        << "query=" << query.ToString() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, PatternEnumerationProperty,
                         ::testing::Range(0u, 6u));

TEST(PatternEnumerationTest, RespectsLabels) {
  GraphBuilder b;
  // Two triangles: one with labels (0,0,1), one all-0.
  for (const Label l : {0u, 0u, 1u, 0u, 0u, 0u}) b.AddVertex(l);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  const Graph g = std::move(b).Build();

  Pattern labeled_triangle;
  labeled_triangle.AddVertex(0);
  labeled_triangle.AddVertex(0);
  labeled_triangle.AddVertex(1);
  labeled_triangle.AddEdge(0, 1);
  labeled_triangle.AddEdge(1, 2);
  labeled_triangle.AddEdge(0, 2);

  PatternInducedStrategy strategy(labeled_triangle);
  DfsDriver driver{.graph = g, .strategy = strategy, .target_depth = 3};
  driver.Run();
  EXPECT_EQ(driver.count, 1u);
  EXPECT_EQ(driver.count, brute::CountPatternMatches(g, labeled_triangle));
}

TEST(EnumeratorTest, OwnerConsumesAll) {
  SubgraphEnumerator enumerator;
  Subgraph prefix;
  enumerator.Refill(prefix, 3, {10, 20, 30}, {100, 101, 200, 201, 300, 301});
  EXPECT_TRUE(enumerator.LooksNonEmpty());
  EXPECT_EQ(enumerator.primitive_index(), 3u);
  std::vector<uint32_t> consumed;
  std::vector<EdgeId> rows;
  while (auto index = enumerator.ConsumeNext()) {
    consumed.push_back(enumerator.extension(*index));
    const auto row = enumerator.row(*index);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  EXPECT_EQ(consumed, (std::vector<uint32_t>{10, 20, 30}));
  EXPECT_EQ(rows, (std::vector<EdgeId>{100, 101, 200, 201, 300, 301}));
  EXPECT_FALSE(enumerator.LooksNonEmpty());
}

TEST(EnumeratorTest, StealClaimsDisjointExtensions) {
  const Graph g = testgraphs::Complete(5);
  SubgraphEnumerator enumerator;
  Subgraph prefix;
  prefix.PushVertexInduced(g, 0);
  enumerator.Refill(prefix, 2, {1, 2, 3, 4}, {});

  SubgraphEnumerator::StolenWork stolen;
  ASSERT_TRUE(enumerator.TrySteal(&stolen));
  EXPECT_EQ(stolen.extension, 1u);
  EXPECT_EQ(stolen.primitive_index, 2u);
  EXPECT_EQ(stolen.prefix.NumVertices(), 1u);
  EXPECT_EQ(stolen.prefix.VertexAt(0), 0u);

  std::vector<uint32_t> owner_got;
  while (auto index = enumerator.ConsumeNext()) {
    owner_got.push_back(enumerator.extension(*index));
  }
  EXPECT_EQ(owner_got, (std::vector<uint32_t>{2, 3, 4}));

  EXPECT_FALSE(enumerator.TrySteal(&stolen));
  enumerator.Deactivate();
  EXPECT_FALSE(enumerator.TrySteal(&stolen));
}

TEST(EnumeratorTest, ConcurrentConsumptionIsExactlyOnce) {
  SubgraphEnumerator enumerator;
  Subgraph prefix;
  constexpr uint32_t kExtensions = 10000;
  std::vector<uint32_t> extensions(kExtensions);
  for (uint32_t i = 0; i < kExtensions; ++i) extensions[i] = i;
  enumerator.Refill(prefix, 1, std::move(extensions), {});

  std::vector<std::vector<uint32_t>> claimed(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&enumerator, &claimed, t] {
      if (t == 0) {
        while (auto index = enumerator.ConsumeNext()) {
          claimed[t].push_back(enumerator.extension(*index));
        }
      } else {
        SubgraphEnumerator::StolenWork work;
        while (enumerator.TrySteal(&work)) {
          claimed[t].push_back(work.extension);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<uint32_t> all;
  for (const auto& c : claimed) all.insert(all.end(), c.begin(), c.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kExtensions);
  for (uint32_t i = 0; i < kExtensions; ++i) EXPECT_EQ(all[i], i);
}

TEST(ExtensionCostTest, CountsCandidateTests) {
  const Graph g = testgraphs::Complete(5);
  VertexInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph s;
  std::vector<uint32_t> extensions;
  strategy.ComputeExtensions(g, s, ctx, &extensions, nullptr);
  EXPECT_EQ(ctx.extension_tests, 5u);  // one root test per vertex
  s.PushVertexInduced(g, 0);
  strategy.ComputeExtensions(g, s, ctx, &extensions, nullptr);
  EXPECT_GT(ctx.extension_tests, 5u);
}

}  // namespace
}  // namespace fractal
