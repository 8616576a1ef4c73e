// Cross-cutting property tests: invariants that must hold for every random
// instance — determinism across cluster shapes, result-set consistency
// between output operators, anti-monotonicity of MNI support, reduction
// soundness, canonicalization algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/keyword_search.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "baselines/single_thread.h"
#include "enumerate/sampling.h"
#include "graph/generators.h"
#include "graph/graph_reduce.h"
#include "pattern/canonical.h"
#include "tests/brute_force.h"
#include "tests/dfs_code.h"
#include "tests/reference_extension.h"
#include "util/random.h"

namespace fractal {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1001, 1002, 1003, 1004));

TEST_P(SeededProperty, CountsIdenticalAcrossRepeatedRuns) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  const uint64_t first = graph.VFractoid().Expand(3).CountSubgraphs(config);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(graph.VFractoid().Expand(3).CountSubgraphs(config), first);
  }
}

TEST_P(SeededProperty, CollectedSubgraphsMatchCountAndAreDistinct) {
  const Graph g = GenerateRandomGraph(25, 70, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  const uint64_t count = graph.VFractoid().Expand(3).CountSubgraphs(config);
  const auto collected =
      graph.VFractoid().Expand(3).CollectSubgraphs(config);
  EXPECT_EQ(collected.size(), count);
  std::set<std::vector<VertexId>> distinct;
  for (const Subgraph& s : collected) {
    std::vector<VertexId> vertices(s.Vertices().begin(), s.Vertices().end());
    std::sort(vertices.begin(), vertices.end());
    EXPECT_TRUE(distinct.insert(vertices).second) << s.ToString();
  }
}

TEST_P(SeededProperty, MaxCollectedCapRespected) {
  const Graph g = GenerateRandomGraph(25, 70, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  config.max_collected_subgraphs = 7;
  const auto collected = graph.VFractoid().Expand(2).CollectSubgraphs(config);
  EXPECT_LE(collected.size(), 7u);
}

TEST_P(SeededProperty, MniSupportIsAntiMonotone) {
  // Every frequent pattern's sub-patterns (one edge removed, still
  // connected) must have at least its support.
  const Graph g = GenerateRandomGraph(14, 30, 2, 1, GetParam());
  const auto all_supports = brute::FsmFrequentPatterns(g, 1, 3);
  for (const auto& [pattern, support] : all_supports) {
    if (pattern.NumEdges() < 2) continue;
    for (const PatternEdge& removed : pattern.Edges()) {
      Pattern sub;
      for (uint32_t v = 0; v < pattern.NumVertices(); ++v) {
        sub.AddVertex(pattern.VertexLabel(v));
      }
      for (const PatternEdge& e : pattern.Edges()) {
        if (e == removed) continue;
        sub.AddEdge(e.src, e.dst, e.label);
      }
      if (!sub.IsConnected()) continue;
      // Drop isolated vertices (edge-induced subpattern).
      Pattern trimmed;
      std::vector<int32_t> remap(sub.NumVertices(), -1);
      for (uint32_t v = 0; v < sub.NumVertices(); ++v) {
        if (sub.Degree(v) > 0) {
          remap[v] = trimmed.AddVertex(sub.VertexLabel(v));
        }
      }
      for (const PatternEdge& e : sub.Edges()) {
        trimmed.AddEdge(remap[e.src], remap[e.dst], e.label);
      }
      const Pattern canonical_sub = CanonicalForm(trimmed).pattern;
      const auto it = all_supports.find(canonical_sub);
      ASSERT_NE(it, all_supports.end())
          << "sub-pattern missing: " << canonical_sub.ToString();
      EXPECT_GE(it->second, support)
          << pattern.ToString() << " vs " << canonical_sub.ToString();
    }
  }
}

TEST_P(SeededProperty, ReductionNeverAddsOrLosesSurvivingStructure) {
  const Graph g = GenerateRandomGraph(30, 90, 3, 2, GetParam());
  // Keep even-labeled vertices.
  const Graph reduced = ReduceGraph(
      g, [](const Graph& graph, VertexId v) {
        return graph.VertexLabel(v) % 2 == 0;
      },
      nullptr);
  for (EdgeId e = 0; e < reduced.NumEdges(); ++e) {
    const EdgeEndpoints& ends = reduced.Endpoints(e);
    // Every surviving edge existed in the original with the same label.
    const auto original = g.EdgeBetween(ends.src, ends.dst);
    ASSERT_TRUE(original.has_value());
    EXPECT_EQ(g.GetEdgeLabel(*original), reduced.GetEdgeLabel(e));
    EXPECT_EQ(g.VertexLabel(ends.src) % 2, 0u);
    EXPECT_EQ(g.VertexLabel(ends.dst) % 2, 0u);
  }
  // Every original edge between surviving vertices survives.
  uint32_t expected_edges = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeEndpoints& ends = g.Endpoints(e);
    if (g.VertexLabel(ends.src) % 2 == 0 &&
        g.VertexLabel(ends.dst) % 2 == 0) {
      ++expected_edges;
    }
  }
  EXPECT_EQ(reduced.NumEdges(), expected_edges);
}

TEST_P(SeededProperty, ReductionIsIdempotent) {
  const Graph g = GenerateRandomGraph(30, 80, 2, 1, GetParam());
  auto keep = [](const Graph& /*graph*/, VertexId v) { return v % 3 != 0; };
  const Graph once = ReduceGraph(g, keep, nullptr);
  const Graph twice = ReduceGraph(once, keep, nullptr);
  EXPECT_EQ(once.NumEdges(), twice.NumEdges());
  EXPECT_EQ(once.NumActiveVertices(), twice.NumActiveVertices());
}

TEST_P(SeededProperty, QueryMatchesAreActualMatches) {
  const Graph g = GenerateRandomGraph(15, 40, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  Pattern diamond = Pattern::CyclePattern(4);
  diamond.AddEdge(0, 2);
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  const auto matches =
      QueryFractoid(graph, diamond).CollectSubgraphs(config);
  const Pattern canonical_query = CanonicalForm(diamond).pattern;
  for (const Subgraph& match : matches) {
    EXPECT_EQ(match.NumVertices(), 4u);
    EXPECT_EQ(match.NumEdges(), 5u);
    EXPECT_EQ(CanonicalForm(match.QuickPattern(g)).pattern, canonical_query);
  }
  EXPECT_EQ(matches.size(), brute::CountPatternMatches(g, diamond));
}

TEST_P(SeededProperty, DfsCodeFixedPoint) {
  // The minimum DFS code of the pattern rebuilt from a minimum DFS code is
  // that same code (canonical representatives are fixed points).
  SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(5);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)));
    }
    const DfsCode code = MinDfsCode(p);
    EXPECT_EQ(MinDfsCode(PatternFromDfsCode(code)), code);
  }
}

TEST_P(SeededProperty, CanonicalOrbitsPartitionPositions) {
  SplitMix64 rng(GetParam() * 31);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(4);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) p.AddVertex(0);
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)));
    }
    const CanonicalResult canonical = CanonicalForm(p);
    ASSERT_EQ(canonical.orbit.size(), n);
    for (uint32_t position = 0; position < n; ++position) {
      const uint32_t representative = canonical.orbit[position];
      EXPECT_LE(representative, position);
      EXPECT_EQ(canonical.orbit[representative], representative);
    }
    // Positions in one orbit have equal degrees and labels.
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        if (canonical.orbit[a] == canonical.orbit[b]) {
          EXPECT_EQ(canonical.pattern.Degree(a), canonical.pattern.Degree(b));
          EXPECT_EQ(canonical.pattern.VertexLabel(a),
                    canonical.pattern.VertexLabel(b));
        }
      }
    }
  }
}

TEST_P(SeededProperty, KeywordSearchReductionInvariance) {
  const Graph g = AttachKeywords(
      GenerateRandomGraph(50, 120, 1, 1, GetParam()), 30, 1, 3, 2.0,
      GetParam() + 7);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  SplitMix64 rng(GetParam());
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<uint32_t> query = {
        static_cast<uint32_t>(rng.NextBounded(10)),
        static_cast<uint32_t>(10 + rng.NextBounded(10))};
    const auto full = RunKeywordSearch(graph, query, false, config);
    const auto reduced = RunKeywordSearch(graph, query, true, config);
    EXPECT_EQ(full.num_matches, reduced.num_matches);
    EXPECT_LE(reduced.extension_cost, full.extension_cost);
  }
}

// ===== Extension-kernel differential sweep (DESIGN.md §8) ==================
// The fused set-algebra strategies in enumerate/extension.cc must be
// observationally identical to the pre-kernel reference strategies: the same
// extension sequence (order included, not just the same set), the same
// extension-test (EC) charge, and the same edge row per candidate, at every
// subgraph the enumeration can reach. The reference rows come from one
// Graph::EdgeBetween per entry, so a kernel row that drops, reorders or
// misreads an entry fails here. Walks the full enumeration tree to
// `max_depth`. At every node a rows-free call (the single-thread baselines'
// form) must yield the same candidates and EC charge; for every candidate
// it descends into, the kernel's own SearchRow (the thief's rebuild) must
// reproduce the emitted row, and the kernel's row push and the reference's
// search push must build identical vertex and edge words. At every node the
// kernel subgraph's incremental quick code (DESIGN.md §8) must decode to
// exactly its quick pattern, or report that it does not fit when the graph
// has more than one edge label.
void ExpectQuickCodeMatches(const Graph& g, const Subgraph& s) {
  const std::optional<QuickCode> code = s.FittingQuickCode(g);
  if (!g.UniformEdgeLabel()) {
    ASSERT_FALSE(code.has_value()) << "fits on a multi-label graph";
    return;
  }
  ASSERT_TRUE(code.has_value()) << "no code at " << s.ToString();
  ASSERT_EQ(Pattern::FromQuickCode(*code, *g.UniformEdgeLabel()),
            s.QuickPattern(g))
      << "quick code diverged at " << s.ToString();
}

void DifferentialSweep(const Graph& g, const ExtensionStrategy& kernel,
                       const ExtensionStrategy& reference,
                       uint32_t max_depth) {
  ExtensionContext kernel_ctx;
  ExtensionContext plain_ctx;
  ExtensionContext reference_ctx;
  Subgraph kernel_sub;
  Subgraph reference_sub;
  std::vector<uint32_t> kernel_out;
  std::vector<uint32_t> plain_out;
  std::vector<uint32_t> reference_out;
  std::vector<EdgeId> kernel_rows;
  std::vector<EdgeId> reference_rows;
  std::vector<EdgeId> searched;
  std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
    ExpectQuickCodeMatches(g, kernel_sub);
    if (::testing::Test::HasFatalFailure()) return;
    kernel.ComputeExtensions(g, kernel_sub, kernel_ctx, &kernel_out,
                             &kernel_rows);
    kernel.ComputeExtensions(g, kernel_sub, plain_ctx, &plain_out, nullptr);
    reference.ComputeExtensions(g, reference_sub, reference_ctx,
                                &reference_out, &reference_rows);
    ASSERT_EQ(kernel_out, reference_out) << "at " << kernel_sub.ToString();
    ASSERT_EQ(kernel_ctx.extension_tests, reference_ctx.extension_tests)
        << "EC diverged at " << kernel_sub.ToString();
    ASSERT_EQ(kernel_rows, reference_rows)
        << "edge rows diverged at " << kernel_sub.ToString();
    ASSERT_EQ(plain_out, kernel_out) << "at " << kernel_sub.ToString();
    ASSERT_EQ(plain_ctx.extension_tests, kernel_ctx.extension_tests)
        << "rows changed the EC charge at " << kernel_sub.ToString();
    if (depth == max_depth) return;
    // out and rows are reused by the recursion.
    const std::vector<uint32_t> extensions = kernel_out;
    const std::vector<EdgeId> rows = kernel_rows;
    const size_t width =
        extensions.empty() ? 0 : rows.size() / extensions.size();
    for (size_t i = 0; i < extensions.size(); ++i) {
      const std::span<const EdgeId> row(rows.data() + i * width, width);
      kernel.SearchRow(g, kernel_sub, extensions[i], &searched);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), searched.begin(),
                             searched.end()))
          << "SearchRow disagrees with the emitted row at "
          << kernel_sub.ToString() << " + " << extensions[i];
      kernel.Apply(g, extensions[i], row, &kernel_sub);
      reference.Apply(g, extensions[i], {}, &reference_sub);
      ASSERT_TRUE(kernel_sub == reference_sub)
          << kernel_sub.ToString() << " vs " << reference_sub.ToString();
      recurse(depth + 1);
      kernel.Undo(g, &kernel_sub);
      reference.Undo(g, &reference_sub);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  recurse(0);
}

/// Random graph with a guaranteed hub: vertex 0 is connected to everything,
/// so its degree crosses the adjacency-bitmap threshold (max(64, |V|/64))
/// and the kernel strategies exercise the bitmap filtering paths.
Graph RandomGraphWithHub(uint32_t extra_edges, uint64_t seed,
                         uint32_t num_vertex_labels = 3,
                         uint32_t num_edge_labels = 2) {
  constexpr uint32_t kVertices = 80;
  GraphBuilder builder;
  SplitMix64 rng(seed);
  for (uint32_t v = 0; v < kVertices; ++v) {
    builder.AddVertex(static_cast<Label>(rng.NextBounded(num_vertex_labels)));
  }
  for (uint32_t v = 1; v < kVertices; ++v) builder.AddEdge(0, v);
  uint32_t added = 0;
  while (added < extra_edges) {
    const VertexId u = 1 + static_cast<VertexId>(rng.NextBounded(kVertices - 1));
    const VertexId v = 1 + static_cast<VertexId>(rng.NextBounded(kVertices - 1));
    if (u == v || builder.HasEdge(u, v)) continue;
    builder.AddEdge(u, v,
                    static_cast<Label>(rng.NextBounded(num_edge_labels)));
    ++added;
  }
  return std::move(builder).Build();
}

TEST_P(SeededProperty, KernelVertexExtensionsMatchReference) {
  const Graph g = GenerateRandomGraph(24, 70, 3, 2, GetParam());
  DifferentialSweep(g, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 3);
}

TEST_P(SeededProperty, KernelEdgeExtensionsMatchReference) {
  const Graph g = GenerateRandomGraph(18, 40, 3, 2, GetParam());
  DifferentialSweep(g, EdgeInducedStrategy{}, ReferenceEdgeInducedStrategy{},
                    3);
}

TEST_P(SeededProperty, KernelKClistExtensionsMatchReference) {
  const Graph g = GenerateRandomGraph(24, 120, 1, 1, GetParam());
  DifferentialSweep(g, KClistStrategy{}, ReferenceKClistStrategy{}, 4);
}

TEST_P(SeededProperty, KernelExtensionsMatchReferenceWithHub) {
  const Graph g = RandomGraphWithHub(160, GetParam());
  ASSERT_GT(g.NumHubs(), 0u) << "test graph must exercise the hub bitmaps";
  DifferentialSweep(g, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 2);
  DifferentialSweep(g, KClistStrategy{}, ReferenceKClistStrategy{}, 3);
}

TEST_P(SeededProperty, KernelExtensionsMatchReferenceUnderReduction) {
  const Graph g = GenerateRandomGraph(26, 80, 3, 2, GetParam());
  // Graph-reduction mask: only even-index vertices survive, so the root
  // extension sets must honor the active mask identically.
  const Graph reduced = ReduceGraph(
      g, [](const Graph&, VertexId v) { return v % 2 == 0; }, nullptr);
  ASSERT_LT(reduced.NumActiveVertices(), reduced.NumVertices());
  DifferentialSweep(reduced, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 3);
  DifferentialSweep(reduced, EdgeInducedStrategy{},
                    ReferenceEdgeInducedStrategy{}, 3);
}

// The pre-kernel pattern-induced scan, rebuilt from a strategy's public
// plan (pattern, matching order, symmetry conditions, semantics): walk the
// smallest-degree required neighbor's list and test every candidate one by
// one. The differential oracle for PatternInducedStrategy's set algebra.
class ScanPatternInducedStrategy : public ExtensionStrategy {
 public:
  explicit ScanPatternInducedStrategy(const PatternInducedStrategy& plan)
      : plan_(plan) {}

  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx, std::vector<uint32_t>* out,
                         std::vector<EdgeId>* rows) const override {
    Scan(graph, subgraph, ctx, out);
    SearchedRows(*this, graph, subgraph, *out, rows);
  }

  // Pushes by search: the row it is handed is ignored.
  void Apply(const Graph& graph, uint32_t extension,
             std::span<const EdgeId> /*row*/,
             Subgraph* subgraph) const override {
    std::vector<EdgeId> row;
    SearchRow(graph, *subgraph, extension, &row);
    uint64_t joined = 0;
    const std::vector<uint32_t>& order = plan_.plan_order();
    const uint32_t step = subgraph->NumVertices();
    for (uint32_t earlier = 0; earlier < step; ++earlier) {
      if (plan_.pattern().IsAdjacent(order[step], order[earlier])) {
        joined |= uint64_t{1} << earlier;
      }
    }
    subgraph->PushVertexWithEdges(graph, extension, row, joined);
  }

  // One EdgeBetween per required neighbor, in step order.
  void SearchRow(const Graph& graph, const Subgraph& subgraph,
                 uint32_t extension,
                 std::vector<EdgeId>* row) const override {
    row->clear();
    const std::vector<uint32_t>& order = plan_.plan_order();
    const uint32_t step = subgraph.NumVertices();
    for (uint32_t earlier = 0; earlier < step; ++earlier) {
      if (plan_.pattern().IsAdjacent(order[step], order[earlier])) {
        row->push_back(
            *graph.EdgeBetween(subgraph.VertexAt(earlier), extension));
      }
    }
  }

 private:
  void Scan(const Graph& graph, const Subgraph& subgraph,
            ExtensionContext& ctx, std::vector<uint32_t>* out) const {
    out->clear();
    const Pattern& pattern = plan_.pattern();
    const std::vector<uint32_t>& order = plan_.plan_order();
    const uint32_t step = subgraph.NumVertices();
    if (step >= pattern.NumVertices()) return;
    const Label wanted = pattern.VertexLabel(order[step]);
    if (step == 0) {
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        ++ctx.extension_tests;
        if (graph.IsVertexActive(v) && graph.VertexLabel(v) == wanted) {
          out->push_back(v);
        }
      }
      return;
    }
    const auto matched = subgraph.Vertices();
    std::vector<uint32_t> required;  // earlier steps linked to this one
    for (uint32_t earlier = 0; earlier < step; ++earlier) {
      if (pattern.IsAdjacent(order[step], order[earlier])) {
        required.push_back(earlier);
      }
    }
    uint32_t pivot = required[0];
    for (const uint32_t r : required) {
      if (graph.Degree(matched[r]) < graph.Degree(matched[pivot])) pivot = r;
    }
    for (const VertexId u : graph.Neighbors(matched[pivot])) {
      ++ctx.extension_tests;
      if (graph.VertexLabel(u) != wanted || subgraph.ContainsVertex(u)) {
        continue;
      }
      bool ok = true;
      for (const uint32_t r : required) {
        const auto edge = graph.EdgeBetween(matched[r], u);
        ok = ok && edge.has_value() &&
             graph.GetEdgeLabel(*edge) ==
                 pattern.EdgeLabelBetween(order[step], order[r]);
      }
      if (plan_.semantics() == MatchSemantics::kInduced) {
        for (uint32_t earlier = 0; earlier < step; ++earlier) {
          ok = ok && (pattern.IsAdjacent(order[step], order[earlier]) ||
                      !graph.IsAdjacent(matched[earlier], u));
        }
      }
      for (const SymmetryCondition& condition : plan_.plan_conditions()) {
        if (condition.larger == step && condition.smaller < step) {
          ok = ok && u > matched[condition.smaller];
        }
        if (condition.smaller == step && condition.larger < step) {
          ok = ok && u < matched[condition.larger];
        }
      }
      if (ok) out->push_back(u);
    }
  }

  const PatternInducedStrategy& plan_;
};

/// A 6-vertex pattern whose matching order reaches position 3 after its
/// orbit partner 0 (plan steps 5 and 0), so a symmetry condition bounds a
/// candidate from above. None of q1..q8 has such a condition.
Pattern UpperBoundedPattern() {
  Pattern p;
  for (int i = 0; i < 6; ++i) p.AddVertex(0);
  for (const auto& [u, v] : {std::pair{0, 2}, {0, 3}, {0, 5}, {1, 4}, {1, 5},
                             {2, 4}}) {
    p.AddEdge(u, v);
  }
  return p;
}

/// Sweeps SEED q1..q8, an edge-labelled diamond and UpperBoundedPattern,
/// under both match semantics, to the full pattern depth.
void PatternSweep(const Graph& g) {
  std::vector<Pattern> patterns;
  for (uint32_t q = 1; q <= kNumSeedQueries; ++q) {
    patterns.push_back(SeedQuery(q));
  }
  patterns.push_back(UpperBoundedPattern());
  Pattern labelled;
  for (int i = 0; i < 4; ++i) labelled.AddVertex(0);
  labelled.AddEdge(0, 1, 0);
  labelled.AddEdge(1, 2, 1);
  labelled.AddEdge(2, 3, 0);
  labelled.AddEdge(3, 0, 1);
  labelled.AddEdge(0, 2, 1);
  patterns.push_back(labelled);
  for (const Pattern& pattern : patterns) {
    for (const MatchSemantics semantics :
         {MatchSemantics::kSubgraph, MatchSemantics::kInduced}) {
      SCOPED_TRACE(pattern.ToString() +
                   (semantics == MatchSemantics::kInduced ? " induced"
                                                          : " subgraph"));
      const PatternInducedStrategy kernel(pattern, semantics);
      DifferentialSweep(g, kernel, ScanPatternInducedStrategy(kernel),
                        pattern.NumVertices());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(PatternSweepTest, UpperBoundedPatternHasAnUpperBound) {
  const PatternInducedStrategy strategy(UpperBoundedPattern());
  const auto& conditions = strategy.plan_conditions();
  EXPECT_TRUE(std::any_of(conditions.begin(), conditions.end(),
                          [](const SymmetryCondition& condition) {
                            return condition.smaller > condition.larger;
                          }));
}

TEST_P(SeededProperty, KernelPatternExtensionsMatchScan) {
  // Two edge labels: the per-survivor edge-label check runs.
  const Graph labelled = GenerateRandomGraph(22, 150, 1, 2, GetParam());
  ASSERT_FALSE(labelled.UniformEdgeLabel().has_value());
  PatternSweep(labelled);
  // One edge label: required labels are settled once per call.
  const Graph uniform = GenerateRandomGraph(22, 110, 1, 1, GetParam());
  ASSERT_TRUE(uniform.UniformEdgeLabel().has_value());
  PatternSweep(uniform);
}

TEST_P(SeededProperty, KernelPatternExtensionsMatchScanWithHub) {
  const Graph g = RandomGraphWithHub(400, GetParam(), 1);
  ASSERT_GT(g.NumHubs(), 0u) << "test graph must exercise the hub bitmaps";
  PatternSweep(g);
}

TEST_P(SeededProperty, KernelPatternExtensionsMatchScanUnderReduction) {
  const Graph g = GenerateRandomGraph(26, 220, 1, 2, GetParam());
  const Graph reduced = ReduceGraph(
      g, [](const Graph&, VertexId v) { return v % 3 != 0; }, nullptr);
  ASSERT_LT(reduced.NumActiveVertices(), reduced.NumVertices());
  PatternSweep(reduced);
}

// The sweeps above mostly run on two edge labels, where the quick code must
// report "does not fit"; these run the vertex-word and edge-induced kernels
// on one edge label, where it must decode to the quick pattern at every
// node (KClist and the pattern sweep already have uniform graphs).
TEST_P(SeededProperty, KernelQuickCodesMatchQuickPatterns) {
  const Graph vertex_graph = GenerateRandomGraph(24, 70, 3, 1, GetParam());
  DifferentialSweep(vertex_graph, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 3);
  const Graph edge_graph = GenerateRandomGraph(18, 40, 3, 1, GetParam());
  DifferentialSweep(edge_graph, EdgeInducedStrategy{},
                    ReferenceEdgeInducedStrategy{}, 3);
  const Graph hub = RandomGraphWithHub(160, GetParam(), 3, 1);
  ASSERT_GT(hub.NumHubs(), 0u);
  ASSERT_TRUE(hub.UniformEdgeLabel().has_value());
  DifferentialSweep(hub, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 2);
  DifferentialSweep(hub, KClistStrategy{}, ReferenceKClistStrategy{}, 3);
  PatternSweep(hub);
}

// --- Leaf batches (DESIGN.md §8 "Leaf batches") -----------------------------
// The last E-level runs as a batch. A step that ends there counts its
// candidates; motif counting (Fractoid::CountByPattern) groups them by
// (adjacency mask, vertex label) and canonicalizes one representative per
// group; everything else pushes and visits each candidate. These sweeps
// hold all three paths to the brute force on a stealing 2x2 cluster.

ExecutionConfig LeafCluster() {
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  return config;
}

template <typename Map>
std::map<Pattern, uint64_t> Ordered(const Map& counts) {
  return {counts.begin(), counts.end()};
}

void ExpectLeafMotifsMatchOracles(const Graph& g, uint32_t k) {
  SCOPED_TRACE(testing::Message() << "k=" << k);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const MotifsResult result = CountMotifs(graph, k, LeafCluster());
  const std::map<Pattern, uint64_t> expected = brute::MotifCounts(g, k);
  ASSERT_GT(expected.size(), 1u) << "too few motifs to tell groups apart";
  EXPECT_EQ(Ordered(result.counts), expected);
  EXPECT_EQ(Ordered(baselines::TunedMotifCounts(g, k)), expected);
}

TEST_P(SeededProperty, CountedLeafMotifsMatchBruteForce) {
  // One edge label: the counted leaf. Three vertex labels make groups that
  // differ only by label; k = 3..5 gives masks over 2..4 prefix positions.
  const Graph labeled = GenerateRandomGraph(22, 60, 3, 1, GetParam());
  ASSERT_TRUE(labeled.UniformEdgeLabel().has_value());
  for (uint32_t k = 3; k <= 5; ++k) ExpectLeafMotifsMatchOracles(labeled, k);
  // A hub: its candidates arrive through the bitmap filters.
  const Graph hub = RandomGraphWithHub(60, GetParam(), 2, 1);
  ASSERT_GT(hub.NumHubs(), 0u);
  ExpectLeafMotifsMatchOracles(hub, 3);
}

TEST_P(SeededProperty, CountedLeafMotifsWithWideLabelsMatchBruteForce) {
  // A label above QuickCode::kMaxLabel (253): the group representatives
  // canonicalize through the quick-Pattern path.
  GraphBuilder builder;
  SplitMix64 rng(GetParam());
  constexpr uint32_t kVertices = 20;
  const Label labels[] = {0, 300, 7};
  for (uint32_t v = 0; v < kVertices; ++v) {
    builder.AddVertex(labels[rng.NextBounded(3)]);
  }
  for (uint32_t added = 0; added < 50;) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kVertices));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(kVertices));
    if (u == v || builder.HasEdge(u, v)) continue;
    builder.AddEdge(u, v);
    ++added;
  }
  const Graph g = std::move(builder).Build();
  for (uint32_t k = 3; k <= 4; ++k) ExpectLeafMotifsMatchOracles(g, k);
}

TEST_P(SeededProperty, PerCandidateLeafMotifsMatchBruteForce) {
  // Two edge labels: (mask, label) no longer fixes the quick pattern, so
  // every leaf is pushed and accumulated on its own.
  const Graph g = GenerateRandomGraph(22, 60, 2, 2, GetParam());
  ASSERT_FALSE(g.UniformEdgeLabel().has_value());
  for (uint32_t k = 3; k <= 4; ++k) ExpectLeafMotifsMatchOracles(g, k);
}

TEST_P(SeededProperty, CountedLeafQueriesAndCliquesMatchBruteForce) {
  const Graph g = GenerateRandomGraph(22, 80, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  for (uint32_t q = 1; q <= 8; ++q) {
    SCOPED_TRACE(testing::Message() << "q" << q);
    EXPECT_EQ(CountQueryMatches(graph, SeedQuery(q), LeafCluster()),
              brute::CountPatternMatches(g, SeedQuery(q)));
  }
  for (uint32_t k = 3; k <= 4; ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    EXPECT_EQ(CountCliquesOptimized(graph, k, LeafCluster()),
              brute::CountCliques(g, k));
    EXPECT_EQ(graph.VFractoid().Expand(k).CountSubgraphs(LeafCluster()),
              brute::CountConnectedVertexSets(g, k));
  }
  EXPECT_EQ(graph.EFractoid().Expand(3).CountSubgraphs(LeafCluster()),
            brute::CountConnectedEdgeSets(g, 3));
}

TEST_P(SeededProperty, LeavesAreVisitedWhenSomeoneReadsThem) {
  // A sink or collect_subgraphs reads every leaf, so the leaf batch must
  // push and visit each one rather than count it.
  const Graph g = GenerateRandomGraph(22, 80, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  for (const uint32_t q : {2u, 3u, 6u}) {
    SCOPED_TRACE(testing::Message() << "q" << q);
    const Pattern query = SeedQuery(q);
    const uint64_t expected = brute::CountPatternMatches(g, query);
    ASSERT_GT(expected, 0u);
    const Pattern canonical_query = CanonicalForm(query).pattern;

    std::atomic<uint64_t> sunk{0};
    std::atomic<uint64_t> wrong{0};
    const uint64_t counted = QueryFractoid(graph, query).ForEachSubgraph(
        [&](const Subgraph& match) {
          ++sunk;
          if (match.NumVertices() != query.NumVertices() ||
              CanonicalForm(match.QuickPattern(g)).pattern !=
                  canonical_query) {
            ++wrong;
          }
        },
        LeafCluster());
    EXPECT_EQ(counted, expected);
    EXPECT_EQ(sunk.load(), expected);
    EXPECT_EQ(wrong.load(), 0u);

    const std::vector<Subgraph> collected =
        QueryFractoid(graph, query).CollectSubgraphs(LeafCluster());
    EXPECT_EQ(collected.size(), expected);
    // Each match is one distinct edge set (a vertex set can hold several).
    std::set<std::vector<EdgeId>> distinct;
    for (const Subgraph& match : collected) {
      ASSERT_EQ(match.NumVertices(), query.NumVertices());
      std::vector<EdgeId> edges(match.Edges().begin(), match.Edges().end());
      std::sort(edges.begin(), edges.end());
      EXPECT_TRUE(distinct.insert(edges).second) << match.ToString();
    }
  }
}

// --- Size filters (Fractoid::FilterBySize) ---------------------------------
// Listing 2's clique test reads only the vertex and edge counts. When only
// such filters follow a step's last E and nothing reads the leaves, a
// strategy with word-ordered rows judges each leaf candidate by the edges
// its row adds and counts it without pushing it; other strategies, sinks
// and collection visit each leaf. The counted filters below tally their
// calls, which tells the two paths apart: the fold calls a filter once per
// edge count it meets in a leaf batch, a visit once per leaf.

std::atomic<uint64_t> size_filter_calls{0};

bool IsCliqueSize(uint32_t num_vertices, uint32_t num_edges) {
  size_filter_calls.fetch_add(1, std::memory_order_relaxed);
  return num_edges == num_vertices * (num_vertices - 1) / 2;
}

bool AtLeastFourEdges(uint32_t, uint32_t num_edges) {
  size_filter_calls.fetch_add(1, std::memory_order_relaxed);
  return num_edges >= 4;
}

bool AtMostFiveEdges(uint32_t, uint32_t num_edges) {
  size_filter_calls.fetch_add(1, std::memory_order_relaxed);
  return num_edges <= 5;
}

bool AtMostFourVertices(uint32_t num_vertices, uint32_t) {
  return num_vertices <= 4;
}

/// `filter` as an opaque Filter: the same test, but the step must visit.
LocalFilterFn Opaque(SizeFilterFn filter) {
  return [filter](const Subgraph& subgraph, Computation&) {
    return filter(subgraph.NumVertices(), subgraph.NumEdges());
  };
}

struct FilteredRun {
  uint64_t count = 0;
  uint64_t work_units = 0;
  uint64_t extension_tests = 0;
  uint64_t filter_calls = 0;
};

FilteredRun RunFiltered(const Fractoid& fractoid) {
  size_filter_calls = 0;
  const ExecutionResult result = fractoid.Execute(LeafCluster());
  EXPECT_TRUE(result.status.ok()) << result.status;
  return {result.num_subgraphs, result.telemetry.TotalWorkUnits(),
          result.telemetry.TotalExtensionTests(), size_filter_calls.load()};
}

/// The folded and the visited program agree on every deterministic count.
void ExpectSameRun(const FilteredRun& folded, const FilteredRun& visited) {
  EXPECT_EQ(folded.count, visited.count);
  EXPECT_EQ(folded.work_units, visited.work_units);
  EXPECT_EQ(folded.extension_tests, visited.extension_tests);
}

void ExpectListingTwoCliques(const Graph& g, uint32_t k, bool brute_force) {
  SCOPED_TRACE(testing::Message() << "k=" << k);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const uint64_t expected = baselines::TunedCliqueCount(g, k);
  if (brute_force) {
    EXPECT_EQ(brute::CountCliques(g, k), expected);
  }
  EXPECT_EQ(CountCliques(graph, k, LeafCluster()), expected);

  const Fractoid level = graph.VFractoid().Expand(1);
  const FilteredRun folded =
      RunFiltered(level.FilterBySize(&IsCliqueSize).Explore(k - 1));
  const FilteredRun visited =
      RunFiltered(level.Filter(Opaque(&IsCliqueSize)).Explore(k - 1));
  EXPECT_EQ(folded.count, expected);
  ExpectSameRun(folded, visited);
  // Edges and triangles: the leaf batches hold many more candidates than
  // the edge counts their prefix allows, so the fold calls the filter
  // less often than visiting does. Deeper, a batch may be too small.
  if (k == 2 || k == 3) {
    EXPECT_LT(folded.filter_calls, visited.filter_calls);
  } else {
    EXPECT_LE(folded.filter_calls, visited.filter_calls);
  }
}

TEST_P(SeededProperty, ListingTwoCliquesMatchBruteForce) {
  // Dense enough (p ~ 0.56) for 6-cliques.
  const Graph g = GenerateRandomGraph(22, 130, 1, 1, GetParam());
  for (uint32_t k = 1; k <= 6; ++k) ExpectListingTwoCliques(g, k, true);
  ASSERT_GT(brute::CountCliques(g, 5), 0u);
  // The hub's candidates arrive through the bitmap filters. Brute force
  // over 80 vertices stops at k = 4; TunedCliqueCount covers the rest.
  const Graph hub = RandomGraphWithHub(400, GetParam(), 1, 1);
  ASSERT_GT(hub.NumHubs(), 0u);
  for (uint32_t k = 1; k <= 6; ++k) ExpectListingTwoCliques(hub, k, k <= 4);
  ASSERT_GT(baselines::TunedCliqueCount(hub, 5), 0u);
}

TEST_P(SeededProperty, TrailingSizeFiltersCountInducedShapes) {
  // Two trailing filters whose verdicts pass a middle band of edge counts:
  // connected induced 4-vertex subgraphs with 4 or 5 edges.
  const Graph g = GenerateRandomGraph(22, 70, 2, 1, GetParam());
  uint64_t expected = 0;
  for (const auto& [pattern, count] : brute::MotifCounts(g, 4)) {
    if (pattern.NumEdges() >= 4 && pattern.NumEdges() <= 5) expected += count;
  }
  ASSERT_GT(expected, 0u);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const Fractoid shapes = graph.VFractoid().Expand(4);
  const FilteredRun folded = RunFiltered(shapes.FilterBySize(&AtLeastFourEdges)
                                             .FilterBySize(&AtMostFiveEdges));
  const FilteredRun visited =
      RunFiltered(shapes.Filter(Opaque(&AtLeastFourEdges))
                      .Filter(Opaque(&AtMostFiveEdges)));
  EXPECT_EQ(folded.count, expected);
  ExpectSameRun(folded, visited);
  EXPECT_LT(folded.filter_calls, visited.filter_calls);
}

TEST_P(SeededProperty, SampledCliquesTakeTheFold) {
  // SamplingStrategy drops candidates with their rows and forwards its
  // base's row shape, so sampled vertex-induced leaves fold too. Sampling
  // is a deterministic hash of (prefix, candidate): both programs keep the
  // same subgraphs.
  const Graph g = GenerateRandomGraph(22, 130, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const Fractoid level =
      graph
          .CustomFractoid(std::make_shared<SamplingStrategy>(
              std::make_shared<VertexInducedStrategy>(), 0.7, GetParam()))
          .Expand(1);
  for (uint32_t k = 3; k <= 4; ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const FilteredRun folded =
        RunFiltered(level.FilterBySize(&IsCliqueSize).Explore(k - 1));
    const FilteredRun visited =
        RunFiltered(level.Filter(Opaque(&IsCliqueSize)).Explore(k - 1));
    ASSERT_GT(folded.count, 0u);
    EXPECT_LT(folded.count, brute::CountCliques(g, k));
    ExpectSameRun(folded, visited);
    EXPECT_LT(folded.filter_calls, visited.filter_calls);
  }
}

TEST_P(SeededProperty, EdgeInducedSizeFiltersVisitEachLeaf) {
  // Edge-induced rows are not word-ordered, so trailing size filters keep
  // the visit path. Triangles are the 3-edge sets on three vertices;
  // 4-cliques the 6-edge sets on four, with every level capped at four
  // vertices to keep the enumeration small.
  const Graph g = GenerateRandomGraph(16, 50, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  const FilteredRun triangles =
      RunFiltered(graph.EFractoid().Expand(3).FilterBySize(&IsCliqueSize));
  EXPECT_EQ(triangles.count, brute::CountCliques(g, 3));
  EXPECT_EQ(triangles.filter_calls, brute::CountConnectedEdgeSets(g, 3));

  const Fractoid capped = graph.EFractoid().Expand(1);
  const FilteredRun folded =
      RunFiltered(capped.FilterBySize(&AtMostFourVertices)
                      .Explore(5)
                      .FilterBySize(&IsCliqueSize));
  const FilteredRun visited =
      RunFiltered(capped.Filter(Opaque(&AtMostFourVertices))
                      .Explore(5)
                      .Filter(Opaque(&IsCliqueSize)));
  EXPECT_EQ(folded.count, brute::CountCliques(g, 4));
  ExpectSameRun(folded, visited);
  EXPECT_EQ(folded.filter_calls, visited.filter_calls);
}

TEST_P(SeededProperty, CliqueSinksAndCollectionVisitEveryClique) {
  // A sink or collect_subgraphs reads every clique, so Listing 2's leaves
  // are pushed and visited even behind a size filter.
  const Graph g = GenerateRandomGraph(22, 130, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  for (uint32_t k = 3; k <= 4; ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const uint64_t expected = brute::CountCliques(g, k);
    ASSERT_GT(expected, 0u);
    const uint32_t clique_edges = k * (k - 1) / 2;

    std::mutex mu;
    std::set<std::vector<VertexId>> sunk;
    uint64_t wrong = 0;
    uint64_t duplicates = 0;
    const uint64_t counted = CliquesFractoid(graph, k).ForEachSubgraph(
        [&](const Subgraph& clique) {
          std::vector<VertexId> vertices(clique.Vertices().begin(),
                                         clique.Vertices().end());
          std::sort(vertices.begin(), vertices.end());
          const std::lock_guard<std::mutex> lock(mu);
          if (clique.NumVertices() != k || clique.NumEdges() != clique_edges) {
            ++wrong;
          }
          if (!sunk.insert(std::move(vertices)).second) ++duplicates;
        },
        LeafCluster());
    EXPECT_EQ(counted, expected);
    EXPECT_EQ(sunk.size(), expected);
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(duplicates, 0u);

    const std::vector<Subgraph> collected =
        CliquesFractoid(graph, k).CollectSubgraphs(LeafCluster());
    EXPECT_EQ(collected.size(), expected);
    std::set<std::vector<VertexId>> distinct;
    for (const Subgraph& clique : collected) {
      ASSERT_EQ(clique.NumVertices(), k);
      EXPECT_EQ(clique.NumEdges(), clique_edges);
      std::vector<VertexId> vertices(clique.Vertices().begin(),
                                     clique.Vertices().end());
      std::sort(vertices.begin(), vertices.end());
      EXPECT_TRUE(distinct.insert(vertices).second) << clique.ToString();
    }
    EXPECT_EQ(distinct, sunk);
  }
}

TEST(ExploreTest, ExploreZeroIsIdentity) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(10, 20, 1, 1, 5));
  const Fractoid base = graph.VFractoid().Expand(1);
  EXPECT_EQ(base.Explore(0).primitives().size(), base.primitives().size());
}

TEST(ExploreTest, ExploreEquivalentToManualChaining) {
  const Graph g = GenerateRandomGraph(20, 50, 1, 1, 9);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  auto is_clique = [](const Subgraph& s, Computation&) {
    return s.NumEdges() == s.NumVertices() * (s.NumVertices() - 1) / 2;
  };
  const uint64_t explored = graph.VFractoid()
                                .Expand(1)
                                .Filter(is_clique)
                                .Explore(2)
                                .CountSubgraphs(config);
  const uint64_t manual = graph.VFractoid()
                              .Expand(1)
                              .Filter(is_clique)
                              .Expand(1)
                              .Filter(is_clique)
                              .Expand(1)
                              .Filter(is_clique)
                              .CountSubgraphs(config);
  EXPECT_EQ(explored, manual);
  EXPECT_EQ(explored, brute::CountCliques(g, 3));
}

TEST(DomainSupportTest, SingleEmbeddingAndMerge) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  Subgraph s;
  s.PushEdgeInduced(g, 0);
  const CanonicalResult canonical = CanonicalForm(s.QuickPattern(g));

  DomainSupport a(2, g.NumVertices());
  a.AddEmbedding(s, canonical);
  EXPECT_EQ(a.Support(), 1u);
  EXPECT_FALSE(a.HasEnoughSupport());

  DomainSupport b2(2, g.NumVertices());
  b2.AddEmbedding(s, canonical);
  a.Merge(std::move(b2));
  EXPECT_EQ(a.Support(), 1u);  // same vertices: domains don't grow
  EXPECT_GT(a.ApproxBytes(), 0u);
}

TEST(DomainSupportTest, DistinctEmbeddingsGrowDomains) {
  // Path graph with alternating labels: edges (0,1) and (2,3) share the
  // 0-1 labeled edge pattern.
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(1);
  builder.AddVertex(0);
  builder.AddVertex(1);
  const EdgeId e0 = builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const EdgeId e2 = builder.AddEdge(2, 3);
  const Graph g = std::move(builder).Build();

  DomainSupport support(2, g.NumVertices());
  for (const EdgeId e : {e0, e2}) {
    Subgraph s;
    s.PushEdgeInduced(g, e);
    support.AddEmbedding(s, CanonicalForm(s.QuickPattern(g)));
  }
  EXPECT_EQ(support.Support(), 2u);
  EXPECT_TRUE(support.HasEnoughSupport());
}

// Random embeddings of a 3-vertex path (orbits {ends}, {center}) into a long
// path graph, against a std::set model of each orbit's domain. With 2048
// vertices a domain is promoted from a run to a 32-word bitmap at about 64
// distinct ids, so sets of a few hundred ids cross the boundary and sets of
// a dozen stay runs.
class DomainSupportModelTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNumVertices = 2048;

  struct Model {
    std::set<VertexId> ends;
    std::set<VertexId> center;

    uint64_t Support() const {
      return ends.empty() ? 0 : std::min(ends.size(), center.size());
    }
  };

  DomainSupportModelTest() {
    GraphBuilder builder;
    for (uint32_t v = 0; v < kNumVertices; ++v) builder.AddVertex(0);
    for (uint32_t v = 0; v + 1 < kNumVertices; ++v) builder.AddEdge(v, v + 1);
    graph_ = std::move(builder).Build();
    const Subgraph path = PathAt(0);
    canonical_ = CanonicalForm(path.QuickPattern(graph_));
  }

  Subgraph PathAt(VertexId first) const {
    Subgraph path;
    for (VertexId v = first; v < first + 3; ++v) {
      path.PushVertexInduced(graph_, v);
    }
    return path;
  }

  /// Adds `count` random paths starting below `span` to both, checking the
  /// support after every embedding.
  void AddRandom(uint32_t count, uint32_t span, SplitMix64& rng,
                 DomainSupport* support, Model* model) const {
    for (uint32_t i = 0; i < count; ++i) {
      const VertexId first = static_cast<VertexId>(rng.NextBounded(span));
      support->AddEmbedding(PathAt(first), canonical_);
      model->ends.insert({first, first + 2});
      model->center.insert(first + 1);
      ASSERT_EQ(support->Support(), model->Support()) << "embedding " << i;
    }
  }

  Graph graph_;
  CanonicalResult canonical_;
};

TEST_F(DomainSupportModelTest, OrbitClosureSharesTheEndsDomain) {
  // The two ends of the path are automorphic: one domain holds both.
  EXPECT_EQ(canonical_.orbit[canonical_.permutation[0]],
            canonical_.orbit[canonical_.permutation[2]]);
  EXPECT_NE(canonical_.orbit[canonical_.permutation[0]],
            canonical_.orbit[canonical_.permutation[1]]);
  DomainSupport support(1, kNumVertices);
  support.AddEmbedding(PathAt(10), canonical_);
  support.AddEmbedding(PathAt(12), canonical_);
  // ends {10, 12, 14}, center {11, 13}.
  EXPECT_EQ(support.Support(), 2u);
}

TEST_F(DomainSupportModelTest, AddsMatchTheModelAcrossPromotion) {
  SplitMix64 rng(7);
  DomainSupport support(1, kNumVertices);
  Model model;
  // Dense at first (many duplicates in a small range), then spread out, so
  // the run compacts several times before it is promoted.
  AddRandom(200, 40, rng, &support, &model);
  AddRandom(1500, kNumVertices - 2, rng, &support, &model);
  ASSERT_GT(model.center.size(), 4 * kNumVertices / 32);
  // Both domains were promoted: the center's run alone would hold more.
  EXPECT_LT(support.ApproxHeapBytes(),
            model.center.size() * sizeof(VertexId));
}

TEST_F(DomainSupportModelTest, EveryMergePairingMatchesTheModel) {
  // Small sets stay runs; large ones are promoted to bitmaps.
  struct Side {
    uint32_t count;
    uint32_t span;
  };
  const Side small{12, 200};
  const Side large{600, kNumVertices - 2};
  const Side pairings[][2] = {
      {small, small}, {small, large}, {large, small}, {large, large}};
  uint64_t seed = 100;
  for (const auto& pairing : pairings) {
    SplitMix64 rng(++seed);
    DomainSupport into(1, kNumVertices);
    DomainSupport from(2, kNumVertices);
    Model into_model;
    Model from_model;
    AddRandom(pairing[0].count, pairing[0].span, rng, &into, &into_model);
    AddRandom(pairing[1].count, pairing[1].span, rng, &from, &from_model);
    into.Merge(std::move(from));
    into_model.ends.insert(from_model.ends.begin(), from_model.ends.end());
    into_model.center.insert(from_model.center.begin(),
                             from_model.center.end());
    ASSERT_EQ(into.Support(), into_model.Support())
        << "pairing " << pairing[0].count << "+" << pairing[1].count;
    EXPECT_EQ(into.threshold(), 2u);
    // The merged set keeps accumulating correctly.
    AddRandom(50, kNumVertices - 2, rng, &into, &into_model);
  }
  // Two runs whose union crosses the promotion threshold.
  SplitMix64 rng(++seed);
  DomainSupport a(1, kNumVertices);
  DomainSupport b(1, kNumVertices);
  Model a_model;
  Model b_model;
  AddRandom(40, 400, rng, &a, &a_model);
  for (uint32_t first = 600; first < 900; first += 4) {
    b.AddEmbedding(PathAt(first), canonical_);
    b_model.ends.insert({first, first + 2});
    b_model.center.insert(first + 1);
  }
  a.Merge(std::move(b));
  a_model.ends.insert(b_model.ends.begin(), b_model.ends.end());
  a_model.center.insert(b_model.center.begin(), b_model.center.end());
  EXPECT_EQ(a.Support(), a_model.Support());
}

TEST_F(DomainSupportModelTest, MergeIsOrderInsensitive) {
  // The reduce function's contract (core/aggregation.h): any merge order of
  // the same parts gives the same support.
  std::vector<std::vector<VertexId>> parts(5);
  SplitMix64 rng(31);
  for (size_t i = 0; i < parts.size(); ++i) {
    const uint32_t count = i % 2 == 0 ? 8 : 300;
    for (uint32_t j = 0; j < count; ++j) {
      parts[i].push_back(static_cast<VertexId>(rng.NextBounded(
          kNumVertices - 2)));
    }
  }
  auto build = [&](const std::vector<VertexId>& starts) {
    DomainSupport support(1, kNumVertices);
    for (const VertexId first : starts) {
      support.AddEmbedding(PathAt(first), canonical_);
    }
    return support;
  };
  std::vector<size_t> order(parts.size());
  std::iota(order.begin(), order.end(), 0);
  std::optional<uint64_t> expected;
  do {
    DomainSupport merged = build(parts[order[0]]);
    for (size_t i = 1; i < order.size(); ++i) {
      merged.Merge(build(parts[order[i]]));
    }
    if (!expected) expected = merged.Support();
    ASSERT_EQ(merged.Support(), *expected);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(StepCachingTest, ReExecutionSkipsEverythingWhenFinalIsAggregate) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(15, 35, 1, 1, 3));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  auto fractoid = graph.VFractoid().Expand(2).Aggregate<uint64_t, uint64_t>(
      "total", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
      [](const Subgraph&, Computation&) -> uint64_t { return 1; },
      [](uint64_t& a, uint64_t&& b) { a += b; });
  const auto first = fractoid.Execute(config);
  EXPECT_EQ(first.steps_executed, 1u);
  const auto second = fractoid.Execute(config);
  EXPECT_EQ(second.steps_executed, 0u);  // fully served from cache
  const uint64_t first_total = *TypedStorage<uint64_t, uint64_t>(
                                    *first.aggregations.begin()->second)
                                    .Find(0);
  const uint64_t second_total = *TypedStorage<uint64_t, uint64_t>(
                                     *second.aggregations.begin()->second)
                                     .Find(0);
  EXPECT_EQ(second_total, first_total);
}

TEST(StepCachingTest, DisablingReuseRecomputes) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(15, 35, 1, 1, 3));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  config.reuse_cached_aggregations = false;
  auto fractoid = graph.VFractoid().Expand(2).Aggregate<uint64_t, uint64_t>(
      "total", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
      [](const Subgraph&, Computation&) -> uint64_t { return 1; },
      [](uint64_t& a, uint64_t&& b) { a += b; });
  EXPECT_EQ(fractoid.Execute(config).steps_executed, 1u);
  EXPECT_EQ(fractoid.Execute(config).steps_executed, 1u);
}

}  // namespace
}  // namespace fractal
