#include <gtest/gtest.h>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "baselines/bfs_engine.h"
#include "baselines/join_matcher.h"
#include "baselines/scalemine_like.h"
#include "baselines/single_thread.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "tests/brute_force.h"

namespace fractal {
namespace {

using baselines::BfsEngine;
using baselines::BfsOptions;
using baselines::BfsResult;

TEST(BfsEngineTest, MotifsMatchBruteForce) {
  const Graph g = GenerateRandomGraph(12, 28, 1, 1, 101);
  BfsEngine engine(g);
  for (uint32_t k = 2; k <= 4; ++k) {
    const BfsResult result = engine.Motifs(k);
    EXPECT_FALSE(result.out_of_memory);
    EXPECT_EQ(result.count, brute::CountConnectedVertexSets(g, k));
    const auto expected = brute::MotifCounts(g, k);
    ASSERT_EQ(result.pattern_counts.size(), expected.size());
    for (const auto& [pattern, count] : expected) {
      EXPECT_EQ(result.pattern_counts.at(pattern), count);
    }
  }
}

TEST(BfsEngineTest, CliquesMatchBruteForce) {
  const Graph g = GenerateRandomGraph(14, 45, 1, 1, 103);
  BfsEngine engine(g);
  for (uint32_t k = 3; k <= 5; ++k) {
    EXPECT_EQ(engine.Cliques(k).count, brute::CountCliques(g, k));
  }
}

TEST(BfsEngineTest, QueryMatchesBruteForce) {
  const Graph g = GenerateRandomGraph(11, 24, 1, 1, 107);
  BfsEngine engine(g);
  for (uint32_t q : {1u, 2u, 3u}) {
    Pattern query = q == 1 ? Pattern::Clique(3)
                           : (q == 2 ? Pattern::CyclePattern(4)
                                     : Pattern::PathPattern(4));
    EXPECT_EQ(engine.Query(query).count,
              brute::CountPatternMatches(g, query));
  }
}

TEST(BfsEngineTest, FsmMatchesBruteForce) {
  const Graph g = testgraphs::LabeledFsmExample();
  BfsEngine engine(g);
  const BfsResult result = engine.Fsm(2, 3);
  const auto expected = brute::FsmFrequentPatterns(g, 2, 3);
  ASSERT_EQ(result.pattern_counts.size(), expected.size());
  for (const auto& [pattern, support] : expected) {
    EXPECT_EQ(result.pattern_counts.at(pattern), support);
  }
}

TEST(BfsEngineTest, ReportsOutOfMemoryWithinBudget) {
  PowerLawParams params;
  params.num_vertices = 400;
  params.edges_per_vertex = 6;
  params.seed = 3;
  const Graph g = GeneratePowerLaw(params);
  BfsOptions options;
  options.memory_budget_bytes = 1 << 16;  // 64 KB: guaranteed blowup
  BfsEngine engine(g, options);
  const BfsResult result = engine.Motifs(4);
  EXPECT_TRUE(result.out_of_memory);
  EXPECT_GT(result.peak_state_bytes, options.memory_budget_bytes);
}

TEST(BfsEngineTest, MaterializesFarMoreStateThanFractal) {
  PowerLawParams params;
  params.num_vertices = 300;
  params.edges_per_vertex = 5;
  params.seed = 9;
  const Graph g = GeneratePowerLaw(params);
  BfsEngine engine(g);
  const BfsResult bfs = engine.Motifs(3);

  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  const MotifsResult fractal = CountMotifs(graph, 3, config);

  EXPECT_EQ(bfs.count, fractal.total);
  EXPECT_GT(bfs.peak_state_bytes,
            4 * fractal.execution.peak_state_bytes);
}

TEST(JoinMatcherTest, MatchesBruteForce) {
  const Graph g = GenerateRandomGraph(12, 30, 1, 1, 109);
  for (const bool triangle_seed : {true, false}) {
    baselines::JoinOptions options;
    options.use_triangle_seed = triangle_seed;
    for (uint32_t q = 1; q <= 4; ++q) {
      Pattern query;
      switch (q) {
        case 1:
          query = Pattern::Clique(3);
          break;
        case 2:
          query = Pattern::CyclePattern(4);
          break;
        case 3:
          query = Pattern::Clique(4);
          break;
        default:
          query = Pattern::CyclePattern(4);
          query.AddEdge(0, 2);
          break;
      }
      const auto result = baselines::JoinCountMatches(g, query, options);
      EXPECT_FALSE(result.out_of_memory);
      EXPECT_EQ(result.count, brute::CountPatternMatches(g, query))
          << "q=" << q << " triangle_seed=" << triangle_seed;
    }
  }
}

TEST(JoinMatcherTest, TrianglesAgree) {
  const Graph g = GenerateRandomGraph(40, 180, 1, 1, 113);
  EXPECT_EQ(baselines::JoinCountTriangles(g).count,
            brute::CountCliques(g, 3));
}

TEST(JoinMatcherTest, RespectsMemoryBudget) {
  PowerLawParams params;
  params.num_vertices = 500;
  params.edges_per_vertex = 8;
  params.seed = 31;
  const Graph g = GeneratePowerLaw(params);
  baselines::JoinOptions options;
  options.memory_budget_bytes = 1 << 14;
  options.use_triangle_seed = false;
  const auto result =
      baselines::JoinCountMatches(g, Pattern::Clique(4), options);
  EXPECT_TRUE(result.out_of_memory);
}

TEST(SingleThreadTest, TriangleCountersAgree) {
  const Graph g = GenerateRandomGraph(40, 200, 1, 1, 127);
  const uint64_t expected = brute::CountCliques(g, 3);
  EXPECT_EQ(baselines::TunedTriangleCount(g), expected);
  EXPECT_EQ(baselines::TunedCliqueCount(g, 3), expected);
}

TEST(SingleThreadTest, CliqueCounterMatchesBruteForce) {
  for (const uint64_t seed : {131u, 137u}) {
    const Graph g = GenerateRandomGraph(15, 60, 1, 1, seed);
    for (uint32_t k = 3; k <= 6; ++k) {
      EXPECT_EQ(baselines::TunedCliqueCount(g, k), brute::CountCliques(g, k))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(SingleThreadTest, MotifCountsMatchBruteForce) {
  const Graph g = GenerateRandomGraph(12, 26, 1, 1, 139);
  const auto counts = baselines::TunedMotifCounts(g, 4);
  const auto expected = brute::MotifCounts(g, 4);
  ASSERT_EQ(counts.size(), expected.size());
  for (const auto& [pattern, count] : expected) {
    EXPECT_EQ(counts.at(pattern), count);
  }
}

TEST(SingleThreadTest, QueryCounterMatchesBruteForce) {
  // SEED q1..q8 as given (all labels 0) and relabelled (vertex label =
  // position % 2, edge label = (src + dst) % 2), on a graph with two
  // vertex and two edge labels.
  const Graph g = GenerateRandomGraph(18, 140, 2, 2, 149);
  uint64_t total = 0;
  for (uint32_t q = 1; q <= kNumSeedQueries; ++q) {
    const Pattern plain = SeedQuery(q);
    Pattern labelled;
    for (uint32_t p = 0; p < plain.NumVertices(); ++p) {
      labelled.AddVertex(p % 2);
    }
    for (const PatternEdge& e : plain.Edges()) {
      labelled.AddEdge(e.src, e.dst, (e.src + e.dst) % 2);
    }
    for (const Pattern& query : {plain, labelled}) {
      const uint64_t expected = brute::CountPatternMatches(g, query);
      EXPECT_EQ(baselines::TunedQueryCount(g, query), expected)
          << SeedQueryName(q) << " " << query.ToString();
      total += expected;
    }
  }
  EXPECT_GT(total, 0u) << "the graph must hold some matches";
}

TEST(SingleThreadTest, FsmMatchesBruteForce) {
  const Graph g = testgraphs::LabeledFsmExample();
  const auto frequent = baselines::TunedFsm(g, 2, 3);
  const auto expected = brute::FsmFrequentPatterns(g, 2, 3);
  ASSERT_EQ(frequent.size(), expected.size());
  for (const auto& [pattern, support] : expected) {
    ASSERT_TRUE(frequent.count(pattern)) << pattern.ToString();
    EXPECT_EQ(frequent.at(pattern), support);
  }
}

TEST(SingleThreadTest, DoulionApproximatesTriangles) {
  PowerLawParams params;
  params.num_vertices = 800;
  params.edges_per_vertex = 8;
  params.seed = 41;
  const Graph g = GeneratePowerLaw(params);
  const uint64_t exact = baselines::TunedTriangleCount(g);
  const uint64_t estimate = baselines::DoulionTriangleEstimate(g, 0.5, 17);
  EXPECT_GT(estimate, exact / 2);
  EXPECT_LT(estimate, exact * 2);
}

TEST(ScaleMineTest, FindsSameFrequentPatternSetAsExactFsm) {
  const Graph g = GenerateRandomGraph(20, 45, 2, 1, 151);
  const uint32_t support = 3;
  baselines::ScaleMineOptions options;
  options.sample_walks = 100;
  const auto scalemine =
      baselines::RunScaleMineFsm(g, support, 3, options);
  const auto expected = brute::FsmFrequentPatterns(g, support, 3);
  ASSERT_EQ(scalemine.frequent.size(), expected.size());
  for (const auto& [pattern, support_value] : expected) {
    ASSERT_TRUE(scalemine.frequent.count(pattern)) << pattern.ToString();
    // Supports are clamped at the threshold (approximate counts).
    EXPECT_EQ(scalemine.frequent.at(pattern), support);
    EXPECT_LE(scalemine.frequent.at(pattern), support_value);
  }
}

}  // namespace
}  // namespace fractal
