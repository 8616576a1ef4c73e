#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "pattern/automorphism.h"
#include "pattern/canonical.h"
#include "pattern/pattern.h"
#include "tests/dfs_code.h"
#include "util/alloc_guard.h"
#include "util/random.h"

namespace fractal {
namespace {

TEST(PatternTest, BasicConstruction) {
  Pattern p;
  EXPECT_EQ(p.AddVertex(5), 0u);
  EXPECT_EQ(p.AddVertex(7), 1u);
  p.AddEdge(0, 1, 3);
  EXPECT_EQ(p.NumVertices(), 2u);
  EXPECT_EQ(p.NumEdges(), 1u);
  EXPECT_EQ(p.VertexLabel(0), 5u);
  EXPECT_EQ(p.VertexLabel(1), 7u);
  EXPECT_TRUE(p.IsAdjacent(0, 1));
  EXPECT_TRUE(p.IsAdjacent(1, 0));
  EXPECT_EQ(p.EdgeLabelBetween(1, 0), 3u);
  EXPECT_TRUE(p.IsConnected());
}

TEST(PatternTest, CliqueHelpers) {
  const Pattern k4 = Pattern::Clique(4);
  EXPECT_EQ(k4.NumVertices(), 4u);
  EXPECT_EQ(k4.NumEdges(), 6u);
  EXPECT_TRUE(k4.IsClique());
  EXPECT_TRUE(k4.IsConnected());

  const Pattern c5 = Pattern::CyclePattern(5);
  EXPECT_EQ(c5.NumEdges(), 5u);
  EXPECT_FALSE(c5.IsClique());
  for (uint32_t v = 0; v < 5; ++v) EXPECT_EQ(c5.Degree(v), 2u);

  const Pattern p3 = Pattern::PathPattern(3);
  EXPECT_EQ(p3.NumEdges(), 2u);
  const Pattern s4 = Pattern::StarPattern(4);
  EXPECT_EQ(s4.Degree(0), 3u);
}

TEST(PatternTest, DisconnectedDetected) {
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddEdge(0, 1);
  EXPECT_FALSE(p.IsConnected());
}

TEST(PatternTest, PermutedRelabelsStructure) {
  Pattern p;
  p.AddVertex(1);
  p.AddVertex(2);
  p.AddVertex(3);
  p.AddEdge(0, 1, 9);
  p.AddEdge(1, 2, 8);
  const Pattern q = p.Permuted({2, 0, 1});
  EXPECT_EQ(q.VertexLabel(2), 1u);
  EXPECT_EQ(q.VertexLabel(0), 2u);
  EXPECT_EQ(q.VertexLabel(1), 3u);
  EXPECT_TRUE(q.IsAdjacent(2, 0));
  EXPECT_EQ(q.EdgeLabelBetween(2, 0), 9u);
  EXPECT_TRUE(q.IsAdjacent(0, 1));
  EXPECT_EQ(q.EdgeLabelBetween(0, 1), 8u);
  EXPECT_FALSE(q.IsAdjacent(1, 2));
}

// --- Inline storage and the large-pattern spill --------------------------

/// The former vector-backed representation, kept as the reference model of
/// Pattern's value semantics: labels by position, edges sorted by
/// (src, dst). Equality, ordering and the hash are defined over these two
/// sequences whatever storage the pattern uses.
struct ReferencePattern {
  std::vector<Label> labels;
  std::vector<PatternEdge> edges;

  void AddEdge(uint32_t u, uint32_t v, Label label) {
    const PatternEdge edge{std::min(u, v), std::max(u, v), label};
    edges.insert(std::lower_bound(edges.begin(), edges.end(), edge), edge);
  }

  uint64_t Hash() const {
    uint64_t hash = 0x9e3779b97f4a7c15ull ^ labels.size();
    auto mix = [&hash](uint64_t value) {
      hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
    };
    for (const Label label : labels) mix(label);
    for (const PatternEdge& edge : edges) {
      mix((static_cast<uint64_t>(edge.src) << 40) |
          (static_cast<uint64_t>(edge.dst) << 20) | edge.label);
    }
    return hash;
  }

  std::strong_ordering Compare(const ReferencePattern& other) const {
    if (auto c = labels <=> other.labels; c != 0) return c;
    return edges <=> other.edges;
  }
};

/// Builds the same random labeled pattern twice — as a Pattern and as the
/// reference model — adding edges in random order so sorted insertion is
/// exercised. n ranges past the inline capacity.
std::pair<Pattern, ReferencePattern> RandomPatternPair(SplitMix64& rng,
                                                       uint32_t n) {
  Pattern pattern;
  ReferencePattern reference;
  for (uint32_t v = 0; v < n; ++v) {
    const Label label = static_cast<Label>(rng.NextBounded(3));
    pattern.AddVertex(label);
    reference.labels.push_back(label);
  }
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.NextBounded(100) < 40) pairs.emplace_back(v, u);
    }
  }
  for (uint32_t i = static_cast<uint32_t>(pairs.size()); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.NextBounded(i)]);
  }
  for (const auto& [u, v] : pairs) {
    const Label label = static_cast<Label>(rng.NextBounded(2));
    pattern.AddEdge(u, v, label);
    reference.AddEdge(u, v, label);
  }
  return {std::move(pattern), std::move(reference)};
}

std::vector<PatternEdge> EdgeList(const Pattern& pattern) {
  return {pattern.Edges().begin(), pattern.Edges().end()};
}

TEST(PatternStorageTest, MatchesReferenceModelAcrossInlineCapacity) {
  SplitMix64 rng(2024);
  std::vector<std::pair<Pattern, ReferencePattern>> built;
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBounded(12));
    built.push_back(RandomPatternPair(rng, n));
  }
  // Force equal pairs across storage classes too.
  built.push_back(built.front());
  for (const auto& [pattern, reference] : built) {
    ASSERT_EQ(pattern.NumVertices(), reference.labels.size());
    ASSERT_EQ(pattern.NumEdges(), reference.edges.size());
    EXPECT_EQ(EdgeList(pattern), reference.edges) << pattern.ToString();
    EXPECT_EQ(pattern.Hash(), reference.Hash()) << pattern.ToString();
    EXPECT_EQ(pattern.ApproxHeapBytes() == 0,
              pattern.NumVertices() <= Pattern::kInlineVertices);
    for (size_t i = 0; i < reference.edges.size(); ++i) {
      const PatternEdge& edge = reference.edges[i];
      EXPECT_EQ(pattern.EdgeIndex(edge.dst, edge.src), i);
      EXPECT_EQ(pattern.EdgeLabelBetween(edge.dst, edge.src), edge.label);
    }
    const Pattern copy = pattern;
    EXPECT_EQ(copy, pattern);
    EXPECT_EQ(copy.Hash(), pattern.Hash());
  }
  for (size_t i = 0; i < built.size(); ++i) {
    for (size_t j = i; j < std::min(built.size(), i + 25); ++j) {
      const auto& [a, ra] = built[i];
      const auto& [b, rb] = built[j];
      EXPECT_EQ(a <=> b, ra.Compare(rb)) << a.ToString() << " vs "
                                         << b.ToString();
      EXPECT_EQ(a == b, ra.Compare(rb) == 0);
    }
  }
}

TEST(PatternStorageTest, PermutedRoundTripsAcrossInlineCapacity) {
  SplitMix64 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.NextBounded(11));
    const Pattern p = RandomPatternPair(rng, n).first;
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (uint32_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    std::vector<uint32_t> inverse(n);
    for (uint32_t i = 0; i < n; ++i) inverse[perm[i]] = i;
    const Pattern q = p.Permuted(perm);
    EXPECT_EQ(q.NumEdges(), p.NumEdges());
    for (const PatternEdge& e : p.Edges()) {
      EXPECT_TRUE(q.IsAdjacent(perm[e.src], perm[e.dst]));
      EXPECT_EQ(q.EdgeLabelBetween(perm[e.src], perm[e.dst]), e.label);
    }
    EXPECT_EQ(q.Permuted(inverse), p) << p.ToString();
  }
}

TEST(PatternStorageTest, TwelveVertexPathSpillsAndRoundTrips) {
  // Distinct, scrambled labels keep CanonicalForm's search linear-ish.
  Pattern path;
  for (uint32_t v = 0; v < 12; ++v) path.AddVertex((v * 7) % 12);
  for (uint32_t v = 0; v + 1 < 12; ++v) path.AddEdge(v, v + 1, v % 2);
  EXPECT_EQ(path.NumVertices(), 12u);
  EXPECT_EQ(path.NumEdges(), 11u);
  EXPECT_GT(path.ApproxHeapBytes(), 0u);
  EXPECT_TRUE(path.IsConnected());

  // The first eight positions, built inline, agree with the spilled
  // pattern position by position.
  Pattern prefix;
  for (uint32_t v = 0; v < 8; ++v) prefix.AddVertex(path.VertexLabel(v));
  for (uint32_t v = 0; v + 1 < 8; ++v) prefix.AddEdge(v, v + 1, v % 2);
  EXPECT_EQ(prefix.ApproxHeapBytes(), 0u);
  for (uint32_t u = 0; u < 8; ++u) {
    EXPECT_EQ(prefix.VertexLabel(u), path.VertexLabel(u));
    EXPECT_EQ(prefix.NeighborMask(u), path.NeighborMask(u) & 0xffu);
  }
  // Old vector ordering: equal label prefix, shorter first.
  EXPECT_LT(Pattern::PathPattern(8), Pattern::PathPattern(12));
  EXPECT_NE(Pattern::PathPattern(8).Hash(), Pattern::PathPattern(12).Hash());

  const CanonicalResult canonical = CanonicalForm(path);
  EXPECT_EQ(canonical.pattern, path.Permuted(canonical.permutation));
  std::vector<uint32_t> reversed(12);
  for (uint32_t v = 0; v < 12; ++v) reversed[v] = 11 - v;
  EXPECT_EQ(CanonicalForm(path.Permuted(reversed)).pattern, canonical.pattern);

  // Copies, moves and assignments keep value semantics.
  Pattern copy = path;
  EXPECT_EQ(copy, path);
  Pattern moved = std::move(copy);
  EXPECT_EQ(moved, path);
  EXPECT_EQ(copy.NumVertices(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy, Pattern());         // NOLINT(bugprone-use-after-move)
  Pattern assigned = Pattern::Clique(3);
  assigned = path;
  EXPECT_EQ(assigned, path);
  assigned = Pattern::Clique(3);
  EXPECT_EQ(assigned, Pattern::Clique(3));
  EXPECT_EQ(assigned.ApproxHeapBytes(), 0u);
}

TEST(PatternStorageTest, FifteenEdgeSixVertexPatternRoundTrips) {
  // K6 with edge labels: the densest 6-vertex pattern (catalog graphs).
  Pattern k6;
  for (uint32_t v = 0; v < 6; ++v) k6.AddVertex(v % 2);
  for (uint32_t u = 5; u > 0; --u) {
    for (uint32_t v = 0; v < u; ++v) k6.AddEdge(u, v, (u + v) % 3);
  }
  ASSERT_EQ(k6.NumEdges(), 15u);
  EXPECT_TRUE(k6.IsClique());
  EXPECT_EQ(k6.ApproxHeapBytes(), 0u);
  const std::vector<PatternEdge> edges = EdgeList(k6);
  EXPECT_EQ(edges.size(), 15u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  const std::vector<uint32_t> perm = {3, 5, 0, 4, 1, 2};
  const Pattern shuffled = k6.Permuted(perm);
  EXPECT_NE(shuffled, k6);
  EXPECT_EQ(CanonicalForm(shuffled).pattern, CanonicalForm(k6).pattern);
  EXPECT_TRUE(AreIsomorphic(shuffled, k6));
  const Pattern k8 = Pattern::Clique(8);  // the largest inline pattern
  EXPECT_EQ(k8.NumEdges(), Pattern::kInlineEdges);
  EXPECT_EQ(k8.ApproxHeapBytes(), 0u);
}

TEST(PatternStorageTest, InlinePatternsNeverAllocate) {
  if (!AllocGuard::Active()) {
    GTEST_SKIP() << "alloc-guard runtime not compiled in";
  }
  EXPECT_LE(sizeof(Pattern), 256u);
  uint64_t allocations = 0;
  {
    AllocGuard guard(AllocGuard::Mode::kCount);
    Pattern k8 = Pattern::Clique(8);
    Pattern copy = k8;
    Pattern moved = std::move(copy);
    moved = k8;
    const bool same = moved == k8 && !(moved < k8) && k8.Hash() != 0;
    EXPECT_TRUE(same);
    allocations = guard.allocations();
  }
  EXPECT_EQ(allocations, 0u);
}

TEST(CanonicalTest, PermutationReturnsSelfConsistentResult) {
  Pattern p = Pattern::CyclePattern(4);
  p.AddEdge(0, 2);
  const CanonicalResult canonical = CanonicalForm(p);
  EXPECT_EQ(canonical.pattern, p.Permuted(canonical.permutation));
}

TEST(CanonicalTest, InvariantUnderRelabeling) {
  SplitMix64 rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    // Random small labeled pattern.
    const uint32_t n = 2 + rng.NextBounded(5);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(3)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (rng.NextBounded(100) < 55) {
          p.AddEdge(i, j, static_cast<Label>(rng.NextBounded(2)));
        }
      }
    }
    // Random permutation.
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (uint32_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    const Pattern q = p.Permuted(perm);
    EXPECT_EQ(CanonicalForm(p).pattern, CanonicalForm(q).pattern)
        << "p=" << p.ToString() << " q=" << q.ToString();
  }
}

TEST(CanonicalTest, DistinguishesNonIsomorphic) {
  const Pattern path = Pattern::PathPattern(4);
  const Pattern star = Pattern::StarPattern(4);
  EXPECT_EQ(path.NumEdges(), star.NumEdges());
  EXPECT_NE(CanonicalForm(path).pattern, CanonicalForm(star).pattern);
  EXPECT_FALSE(AreIsomorphic(path, star));
  EXPECT_TRUE(AreIsomorphic(path, path.Permuted({3, 1, 0, 2})));
}

TEST(CanonicalTest, LabelsMatter) {
  Pattern a;
  a.AddVertex(0);
  a.AddVertex(1);
  a.AddEdge(0, 1);
  Pattern b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  EXPECT_FALSE(AreIsomorphic(a, b));
  Pattern c;
  c.AddVertex(1);
  c.AddVertex(0);
  c.AddEdge(0, 1);
  EXPECT_TRUE(AreIsomorphic(a, c));
}

TEST(CanonicalTest, CacheHitsOnRepeatedQuickPatterns) {
  CanonicalPatternCache cache;
  const Pattern p = Pattern::CyclePattern(4);
  const CanonicalResult& first = cache.Canonicalize(p);
  const CanonicalResult& second = cache.Canonicalize(p);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.Misses(), 1u);
  EXPECT_EQ(cache.CacheSize(), 1u);
}

/// The QuickCode of a pattern of at most 8 positions with narrow labels
/// (edge labels are not part of a code).
QuickCode CodeOf(const Pattern& pattern) {
  QuickCode code;
  for (uint32_t v = 0; v < pattern.NumVertices(); ++v) {
    code.labels |= QuickCode::LabelSlot(pattern.VertexLabel(v)) << (8 * v);
    const uint64_t lower = pattern.NeighborMask(v) & ((1u << v) - 1);
    code.adjacency |= lower << (8 * v);
  }
  return code;
}

/// Random pattern of 1..8 positions, every edge labelled `edge_label`.
Pattern RandomUniformPattern(SplitMix64& rng, Label edge_label) {
  Pattern pattern;
  const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBounded(8));
  for (uint32_t v = 0; v < n; ++v) {
    pattern.AddVertex(static_cast<Label>(rng.NextBounded(3)));
  }
  for (uint32_t v = 1; v < n; ++v) {
    for (uint32_t u = 0; u < v; ++u) {
      if (rng.NextBounded(100) < 35) pattern.AddEdge(u, v, edge_label);
    }
  }
  return pattern;
}

TEST(QuickCodeTest, DecodesToTheEncodedPattern) {
  SplitMix64 rng(91);
  for (int trial = 0; trial < 300; ++trial) {
    const Pattern pattern = RandomUniformPattern(rng, /*edge_label=*/6);
    const QuickCode code = CodeOf(pattern);
    ASSERT_TRUE(code.LabelsFit());
    EXPECT_EQ(Pattern::FromQuickCode(code, 6), pattern) << pattern.ToString();
  }
  QuickCode wide;
  wide.labels = QuickCode::LabelSlot(QuickCode::kMaxLabel + 1);
  EXPECT_FALSE(wide.LabelsFit());
  wide.labels = QuickCode::LabelSlot(QuickCode::kMaxLabel);
  EXPECT_TRUE(wide.LabelsFit());
}

// The cache's code table and Pattern map hand out one dense id space: a
// code and the pattern it encodes get the same id, ids count canonical
// classes, and every entry survives the code table's growth.
TEST(CanonicalTest, QuickCodesAndPatternsShareDenseIds) {
  CanonicalPatternCache cache;
  SplitMix64 rng(92);
  std::vector<Pattern> patterns;
  std::vector<const CanonicalResult*> first;
  std::map<Pattern, uint32_t> ids;
  for (int trial = 0; trial < 400; ++trial) {
    patterns.push_back(RandomUniformPattern(rng, /*edge_label=*/0));
    const Pattern& pattern = patterns.back();
    const CanonicalResult& by_code = cache.Canonicalize(CodeOf(pattern), 0);
    const CanonicalResult& by_pattern = cache.Canonicalize(pattern);
    const Pattern canonical = CanonicalForm(pattern).pattern;
    ASSERT_EQ(by_code.pattern, canonical);
    ASSERT_EQ(by_code.id, by_pattern.id);
    ASSERT_EQ(cache.PatternOf(by_code.id), canonical);
    const auto [it, fresh] = ids.emplace(canonical, by_code.id);
    ASSERT_EQ(it->second, by_code.id) << "one canonical class, two ids";
    first.push_back(&by_code);
  }
  EXPECT_EQ(cache.NumIds(), ids.size());
  for (const auto& [canonical, id] : ids) EXPECT_LT(id, ids.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(&cache.Canonicalize(CodeOf(patterns[i]), 0), first[i]);
  }
  const std::set<Pattern> distinct(patterns.begin(), patterns.end());
  // One miss per distinct quick pattern on each path.
  EXPECT_EQ(cache.Misses(), 2 * distinct.size());
  EXPECT_EQ(cache.CacheSize(), cache.Misses());
}

TEST(DfsCodeTest, TriangleCode) {
  const DfsCode code = MinDfsCode(Pattern::Clique(3));
  ASSERT_EQ(code.edges.size(), 3u);
  // (0,1)(1,2)(2,0): two forwards then the closing backward edge.
  EXPECT_TRUE(code.edges[0].IsForward());
  EXPECT_TRUE(code.edges[1].IsForward());
  EXPECT_FALSE(code.edges[2].IsForward());
}

TEST(DfsCodeTest, RoundTripThroughPattern) {
  SplitMix64 rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(5);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    // Random spanning tree to guarantee connectivity, then extra edges.
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)),
                static_cast<Label>(rng.NextBounded(2)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (!p.IsAdjacent(i, j) && rng.NextBounded(100) < 30) {
          p.AddEdge(i, j, static_cast<Label>(rng.NextBounded(2)));
        }
      }
    }
    const DfsCode code = MinDfsCode(p);
    const Pattern rebuilt = PatternFromDfsCode(code);
    EXPECT_TRUE(AreIsomorphic(p, rebuilt)) << p.ToString();
    // The minimum DFS code must be a canonical form: equal across all
    // members of the isomorphism class.
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::swap(perm[0], perm[n - 1]);
    EXPECT_EQ(MinDfsCode(p.Permuted(perm)), code) << p.ToString();
  }
}

TEST(DfsCodeTest, AgreesWithAdjacencyCanonicalization) {
  // The two canonicalization providers must induce the same equivalence
  // classes on random patterns.
  SplitMix64 rng(42);
  std::map<std::string, Pattern> dfs_class_representative;
  for (int trial = 0; trial < 150; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(4);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (!p.IsAdjacent(i, j) && rng.NextBounded(100) < 40) p.AddEdge(i, j);
      }
    }
    const std::string dfs_key = MinDfsCode(p).ToString();
    const Pattern canonical = CanonicalForm(p).pattern;
    auto [it, inserted] =
        dfs_class_representative.emplace(dfs_key, canonical);
    if (!inserted) {
      EXPECT_EQ(it->second, canonical)
          << "DFS-code class split by adjacency canonicalization";
    }
  }
}

TEST(AutomorphismTest, KnownGroupSizes) {
  EXPECT_EQ(Automorphisms(Pattern::Clique(4)).size(), 24u);      // S4
  EXPECT_EQ(Automorphisms(Pattern::CyclePattern(5)).size(), 10u);  // D5
  EXPECT_EQ(Automorphisms(Pattern::PathPattern(4)).size(), 2u);
  EXPECT_EQ(Automorphisms(Pattern::StarPattern(5)).size(), 24u);  // S4 leaves
}

TEST(AutomorphismTest, LabelsBreakSymmetry) {
  Pattern p = Pattern::PathPattern(3);
  EXPECT_EQ(Automorphisms(p).size(), 2u);
  Pattern labeled;
  labeled.AddVertex(1);
  labeled.AddVertex(0);
  labeled.AddVertex(2);
  labeled.AddEdge(0, 1);
  labeled.AddEdge(1, 2);
  EXPECT_EQ(Automorphisms(labeled).size(), 1u);
}

TEST(SymmetryBreakingTest, CliqueGetsTotalOrder) {
  const auto conditions = SymmetryBreakingConditions(Pattern::Clique(4));
  // Breaking S4 requires fixing 3 orbits: 3 + 2 + 1 = 6 conditions.
  EXPECT_EQ(conditions.size(), 6u);
}

TEST(SymmetryBreakingTest, ExactlyOneRepresentativePerOrbit) {
  // For every pattern and every injective assignment of distinct ids to
  // positions, exactly one automorphic re-assignment satisfies the
  // conditions.
  for (const Pattern& p :
       {Pattern::Clique(3), Pattern::CyclePattern(4), Pattern::StarPattern(4),
        Pattern::PathPattern(4), Pattern::Clique(4)}) {
    const auto automorphisms = Automorphisms(p);
    const auto conditions = SymmetryBreakingConditions(p);
    // Assignment: position i -> id order[i] for a fixed distinct id set.
    std::vector<uint32_t> ids(p.NumVertices());
    std::iota(ids.begin(), ids.end(), 10);
    uint32_t satisfying = 0;
    for (const auto& automorphism : automorphisms) {
      // Re-assign: position i gets the id of position automorphism[i].
      bool ok = true;
      for (const SymmetryCondition& condition : conditions) {
        if (ids[automorphism[condition.smaller]] >=
            ids[automorphism[condition.larger]]) {
          ok = false;
          break;
        }
      }
      if (ok) ++satisfying;
    }
    EXPECT_EQ(satisfying, 1u) << p.ToString();
  }
}

}  // namespace
}  // namespace fractal
