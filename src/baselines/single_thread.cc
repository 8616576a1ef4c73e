#include "baselines/single_thread.h"

#include <algorithm>
#include <functional>

#include "enumerate/extension.h"
#include "enumerate/subgraph.h"
#include "pattern/automorphism.h"
#include "pattern/canonical.h"
#include "util/random.h"

namespace fractal {
namespace baselines {
namespace {

/// Degeneracy (smallest-last) vertex ordering; rank[v] = position.
std::vector<uint32_t> DegeneracyRank(const Graph& graph) {
  const uint32_t n = graph.NumVertices();
  std::vector<uint32_t> degree(n), rank(n, 0);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket queue.
  std::vector<std::vector<VertexId>> buckets(max_degree + 1);
  for (VertexId v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<uint8_t> removed(n, 0);
  uint32_t position = 0;
  uint32_t current = 0;
  while (position < n) {
    while (current <= max_degree && buckets[current].empty()) ++current;
    if (current > max_degree) break;
    const VertexId v = buckets[current].back();
    buckets[current].pop_back();
    if (removed[v] || degree[v] != current) {
      // Stale entry: re-bucket if needed.
      if (!removed[v] && degree[v] < current) {
        buckets[degree[v]].push_back(v);
        current = degree[v];
      }
      continue;
    }
    removed[v] = 1;
    rank[v] = position++;
    for (const VertexId u : graph.Neighbors(v)) {
      if (!removed[u] && degree[u] > 0) {
        --degree[u];
        buckets[degree[u]].push_back(u);
        if (degree[u] < current) current = degree[u];
      }
    }
  }
  return rank;
}

}  // namespace

uint64_t TunedTriangleCount(const Graph& graph) {
  // Forward adjacency by vertex id: for each edge (u, v) with u < v, count
  // common forward neighbors via two-pointer merge.
  uint64_t count = 0;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    const auto u_neighbors = graph.Neighbors(u);
    for (const VertexId v : u_neighbors) {
      if (v <= u) continue;
      const auto v_neighbors = graph.Neighbors(v);
      auto i = std::upper_bound(u_neighbors.begin(), u_neighbors.end(), v);
      auto j = std::upper_bound(v_neighbors.begin(), v_neighbors.end(), v);
      while (i != u_neighbors.end() && j != v_neighbors.end()) {
        if (*i == *j) {
          ++count;
          ++i;
          ++j;
        } else if (*i < *j) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  return count;
}

uint64_t TunedCliqueCount(const Graph& graph, uint32_t k) {
  if (k == 1) return graph.NumActiveVertices();
  if (k == 2) return graph.NumEdges();
  const std::vector<uint32_t> rank = DegeneracyRank(graph);
  // DAG adjacency: out-neighbors by increasing degeneracy rank.
  std::vector<std::vector<VertexId>> out(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (const VertexId u : graph.Neighbors(v)) {
      if (rank[u] > rank[v]) out[v].push_back(u);
    }
    std::sort(out[v].begin(), out[v].end());
  }
  uint64_t count = 0;
  std::vector<VertexId> scratch;
  // Recursive candidate-set intersection over the DAG.
  std::function<void(const std::vector<VertexId>&, uint32_t)> expand =
      [&](const std::vector<VertexId>& candidates, uint32_t remaining) {
        if (remaining == 0) {
          ++count;
          return;
        }
        for (const VertexId v : candidates) {
          if (remaining == 1) {
            ++count;
            continue;
          }
          scratch.clear();
          std::set_intersection(candidates.begin(), candidates.end(),
                                out[v].begin(), out[v].end(),
                                std::back_inserter(scratch));
          if (scratch.size() + 1 >= remaining) {
            std::vector<VertexId> next = scratch;
            expand(next, remaining - 1);
          }
        }
      };
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!graph.IsVertexActive(v)) continue;
    expand(out[v], k - 1);
  }
  return count;
}

std::unordered_map<Pattern, uint64_t, PatternHash> TunedMotifCounts(
    const Graph& graph, uint32_t k) {
  std::unordered_map<Pattern, uint64_t, PatternHash> counts;
  VertexInducedStrategy strategy;
  ExtensionContext ctx;
  CanonicalPatternCache cache;
  Subgraph subgraph;
  std::vector<std::vector<uint32_t>> scratch(k + 1);
  std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
    if (depth == k) {
      ++counts[cache.Canonicalize(subgraph.QuickPattern(graph)).pattern];
      return;
    }
    auto& extensions = scratch[depth];
    strategy.ComputeExtensions(graph, subgraph, ctx, &extensions, nullptr);
    const std::vector<uint32_t> local = extensions;
    for (const uint32_t extension : local) {
      subgraph.PushVertexInduced(graph, extension);
      recurse(depth + 1);
      subgraph.Pop();
    }
  };
  recurse(0);
  return counts;
}

uint64_t TunedQueryCount(const Graph& graph, const Pattern& query) {
  // Symmetry-broken matching DFS over pattern positions, sharing nothing
  // with the pattern-induced extension strategy it serves as an oracle for.
  const uint32_t n = query.NumVertices();
  FRACTAL_CHECK(n >= 1 && query.IsConnected());
  // Matching order: the highest-degree position, then repeatedly the
  // position with the most links into the placed prefix.
  std::vector<uint32_t> order;
  std::vector<uint32_t> rank(n, UINT32_MAX);
  uint32_t start = 0;
  for (uint32_t p = 1; p < n; ++p) {
    if (query.Degree(p) > query.Degree(start)) start = p;
  }
  rank[start] = 0;
  order.push_back(start);
  while (order.size() < n) {
    uint32_t best = UINT32_MAX;
    uint32_t best_links = 0;
    for (uint32_t p = 0; p < n; ++p) {
      if (rank[p] != UINT32_MAX) continue;
      uint32_t links = 0;
      for (const uint32_t placed : order) links += query.IsAdjacent(p, placed);
      if (links > best_links) {
        best = p;
        best_links = links;
      }
    }
    rank[best] = static_cast<uint32_t>(order.size());
    order.push_back(best);
  }
  // Per step: links to earlier positions (with the edge label), and the
  // earlier positions whose match bounds this one from below / above.
  struct Link {
    uint32_t position;
    Label label;
  };
  std::vector<std::vector<Link>> links(n);
  std::vector<std::vector<uint32_t>> above(n), below(n);
  for (uint32_t step = 1; step < n; ++step) {
    for (uint32_t earlier = 0; earlier < step; ++earlier) {
      if (query.IsAdjacent(order[step], order[earlier])) {
        links[step].push_back(
            {order[earlier], query.EdgeLabelBetween(order[step],
                                                    order[earlier])});
      }
    }
  }
  for (const SymmetryCondition& c : SymmetryBreakingConditions(query)) {
    if (rank[c.larger] > rank[c.smaller]) {
      above[rank[c.larger]].push_back(c.smaller);
    } else {
      below[rank[c.smaller]].push_back(c.larger);
    }
  }

  std::vector<VertexId> match(n, kInvalidVertex);
  std::vector<uint8_t> used(graph.NumVertices(), 0);
  uint64_t count = 0;
  std::function<void(uint32_t)> extend = [&](uint32_t step) {
    if (step == n) {
      ++count;
      return;
    }
    const uint32_t position = order[step];
    const Label wanted = query.VertexLabel(position);
    if (step == 0) {
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        if (!graph.IsVertexActive(v) || graph.VertexLabel(v) != wanted) {
          continue;
        }
        match[position] = v;
        used[v] = 1;
        extend(1);
        used[v] = 0;
      }
      return;
    }
    VertexId low = 0;
    VertexId high = kInvalidVertex;
    for (const uint32_t p : above[step]) low = std::max(low, match[p] + 1);
    for (const uint32_t p : below[step]) high = std::min(high, match[p]);
    // Walk the smallest linked neighborhood within [low, high); probe the
    // other links by binary search.
    const Link* pivot = &links[step][0];
    for (const Link& link : links[step]) {
      if (graph.Degree(match[link.position]) <
          graph.Degree(match[pivot->position])) {
        pivot = &link;
      }
    }
    const auto neighbors = graph.Neighbors(match[pivot->position]);
    const auto edges = graph.IncidentEdges(match[pivot->position]);
    for (size_t i = static_cast<size_t>(
             std::lower_bound(neighbors.begin(), neighbors.end(), low) -
             neighbors.begin());
         i < neighbors.size() && neighbors[i] < high; ++i) {
      const VertexId u = neighbors[i];
      if (used[u] || graph.VertexLabel(u) != wanted ||
          graph.GetEdgeLabel(edges[i]) != pivot->label) {
        continue;
      }
      bool ok = true;
      for (const Link& link : links[step]) {
        if (&link == pivot) continue;
        const auto edge = graph.EdgeBetween(match[link.position], u);
        if (!edge || graph.GetEdgeLabel(*edge) != link.label) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      match[position] = u;
      used[u] = 1;
      extend(step + 1);
      used[u] = 0;
    }
  };
  extend(0);
  return count;
}

std::unordered_map<Pattern, uint64_t, PatternHash> TunedFsm(
    const Graph& graph, uint32_t min_support, uint32_t max_edges) {
  EdgeInducedStrategy strategy;
  ExtensionContext ctx;
  CanonicalPatternCache cache;
  // Domain maps per canonical pattern, rebuilt per level (pattern growth).
  struct Domains {
    std::vector<std::unordered_map<VertexId, bool>> sets;
  };
  std::unordered_map<Pattern, uint64_t, PatternHash> frequent_all;
  std::unordered_map<Pattern, uint64_t, PatternHash> frequent_level;

  Subgraph subgraph;
  for (uint32_t level = 1; level <= max_edges; ++level) {
    std::unordered_map<Pattern, std::vector<std::unordered_map<VertexId, bool>>,
                       PatternHash>
        domains;
    // Enumerate all level-edge subgraphs whose (level-1)-prefix pattern was
    // frequent (anti-monotone pruning).
    std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
      if (depth > 0) {
        const CanonicalResult& canonical =
            cache.Canonicalize(subgraph.QuickPattern(graph));
        if (depth < level) {
          if (depth >= 1 && !frequent_all.count(canonical.pattern) &&
              depth < level) {
            // Prefix pattern infrequent: prune (only from level 2 on).
            if (level > 1) return;
          }
        } else {
          auto& pattern_domains = domains[canonical.pattern];
          pattern_domains.resize(subgraph.NumVertices());
          for (uint32_t i = 0; i < subgraph.NumVertices(); ++i) {
            pattern_domains[canonical.orbit[canonical.permutation[i]]]
                           [subgraph.VertexAt(i)] = true;
          }
          return;
        }
      }
      std::vector<uint32_t> extensions;
      strategy.ComputeExtensions(graph, subgraph, ctx, &extensions, nullptr);
      for (const uint32_t extension : extensions) {
        subgraph.PushEdgeInduced(graph, extension);
        recurse(depth + 1);
        subgraph.Pop();
      }
    };
    recurse(0);

    frequent_level.clear();
    for (const auto& [pattern, pattern_domains] : domains) {
      uint64_t support = UINT64_MAX;
      bool any = false;
      for (const auto& domain : pattern_domains) {
        if (domain.empty()) continue;
        support = std::min<uint64_t>(support, domain.size());
        any = true;
      }
      if (any && support >= min_support) frequent_level[pattern] = support;
    }
    if (frequent_level.empty()) break;
    for (const auto& [pattern, support] : frequent_level) {
      frequent_all[pattern] = support;
    }
  }
  return frequent_all;
}

uint64_t DoulionTriangleEstimate(const Graph& graph, double p, uint64_t seed) {
  FRACTAL_CHECK(p > 0 && p <= 1.0);
  SplitMix64 rng(seed);
  // Sparsify: keep each edge with probability p.
  GraphBuilder builder;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    builder.AddVertex(graph.VertexLabel(v));
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    if (rng.NextDouble() < p) {
      const EdgeEndpoints& ends = graph.Endpoints(e);
      builder.AddEdge(ends.src, ends.dst, graph.GetEdgeLabel(e));
    }
  }
  const Graph sparse = std::move(builder).Build();
  const double scale = 1.0 / (p * p * p);
  return static_cast<uint64_t>(TunedTriangleCount(sparse) * scale + 0.5);
}

}  // namespace baselines
}  // namespace fractal
