#include "baselines/bfs_engine.h"

#include <algorithm>

#include "apps/fsm.h"
#include "pattern/canonical.h"
#include "util/timer.h"

namespace fractal {
namespace baselines {
namespace {

/// Flat storage of fixed-width embedding words (the materialized level).
struct FlatLevel {
  uint32_t width = 0;
  std::vector<uint32_t> data;

  size_t NumRows() const { return width == 0 ? 0 : data.size() / width; }
  std::span<const uint32_t> Row(size_t index) const {
    return {data.data() + index * width, width};
  }
  uint64_t Bytes() const { return data.size() * sizeof(uint32_t); }
  void Append(std::span<const uint32_t> row, uint32_t extension) {
    data.insert(data.end(), row.begin(), row.end());
    data.push_back(extension);
  }
};

Subgraph RebuildVertexWord(const Graph& graph, std::span<const uint32_t> word) {
  Subgraph subgraph;
  for (const uint32_t v : word) subgraph.PushVertexInduced(graph, v);
  return subgraph;
}

Subgraph RebuildEdgeWord(const Graph& graph, std::span<const uint32_t> word) {
  Subgraph subgraph;
  for (const uint32_t e : word) subgraph.PushEdgeInduced(graph, e);
  return subgraph;
}

uint64_t Replicated(uint64_t bytes, const BfsOptions& options) {
  return static_cast<uint64_t>(bytes * options.state_replication);
}

}  // namespace

BfsResult BfsEngine::CountVertexInduced(uint32_t k) {
  return Motifs(k);  // same enumeration; Motifs also returns total count
}

BfsResult BfsEngine::Motifs(uint32_t k) {
  WallTimer timer;
  BfsResult result;
  VertexInducedStrategy strategy;
  ExtensionContext ctx;
  CanonicalPatternCache cache;

  FlatLevel current;
  current.width = 1;
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    if (graph_.IsVertexActive(v)) current.data.push_back(v);
  }
  result.peak_state_bytes = current.Bytes();

  std::vector<uint32_t> extensions;
  for (uint32_t depth = 1; depth < k; ++depth) {
    FlatLevel next;
    next.width = depth + 1;
    for (size_t row = 0; row < current.NumRows(); ++row) {
      Subgraph subgraph = RebuildVertexWord(graph_, current.Row(row));
      strategy.ComputeExtensions(graph_, subgraph, ctx, &extensions, nullptr);
      for (const uint32_t extension : extensions) {
        next.Append(current.Row(row), extension);
      }
    }
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, Replicated(current.Bytes() + next.Bytes(), options_));
    if (result.peak_state_bytes > options_.memory_budget_bytes) {
      result.out_of_memory = true;
      result.seconds = timer.ElapsedSeconds();
      return result;
    }
    result.seconds +=
        next.NumRows() * options_.shuffle_micros_per_embedding * 1e-6;
    current = std::move(next);
  }

  for (size_t row = 0; row < current.NumRows(); ++row) {
    const Subgraph subgraph = RebuildVertexWord(graph_, current.Row(row));
    const Pattern canonical =
        options_.disable_pattern_cache
            ? CanonicalForm(subgraph.QuickPattern(graph_)).pattern
            : cache.Canonicalize(subgraph.QuickPattern(graph_)).pattern;
    ++result.pattern_counts[canonical];
  }
  result.count = current.NumRows();
  result.seconds += timer.ElapsedSeconds();
  return result;
}

BfsResult BfsEngine::Cliques(uint32_t k) {
  WallTimer timer;
  BfsResult result;
  VertexInducedStrategy strategy;
  ExtensionContext ctx;

  FlatLevel current;
  current.width = 1;
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    if (graph_.IsVertexActive(v)) current.data.push_back(v);
  }
  result.peak_state_bytes = current.Bytes();

  std::vector<uint32_t> extensions;
  for (uint32_t depth = 1; depth < k; ++depth) {
    FlatLevel next;
    next.width = depth + 1;
    for (size_t row = 0; row < current.NumRows(); ++row) {
      Subgraph subgraph = RebuildVertexWord(graph_, current.Row(row));
      strategy.ComputeExtensions(graph_, subgraph, ctx, &extensions, nullptr);
      for (const uint32_t extension : extensions) {
        subgraph.PushVertexInduced(graph_, extension);
        const bool clique =
            subgraph.NumEdges() ==
            subgraph.NumVertices() * (subgraph.NumVertices() - 1) / 2;
        subgraph.Pop();
        if (clique) next.Append(current.Row(row), extension);
      }
    }
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, Replicated(current.Bytes() + next.Bytes(), options_));
    if (result.peak_state_bytes > options_.memory_budget_bytes) {
      result.out_of_memory = true;
      result.seconds = timer.ElapsedSeconds();
      return result;
    }
    result.seconds +=
        next.NumRows() * options_.shuffle_micros_per_embedding * 1e-6;
    current = std::move(next);
  }
  result.count = current.NumRows();
  result.seconds += timer.ElapsedSeconds();
  return result;
}

BfsResult BfsEngine::Query(const Pattern& query) {
  WallTimer timer;
  BfsResult result;
  EdgeInducedStrategy strategy;
  ExtensionContext ctx;
  CanonicalPatternCache cache;
  const Pattern canonical_query = CanonicalForm(query).pattern;
  const uint32_t target_edges = query.NumEdges();
  const uint32_t target_vertices = query.NumVertices();

  FlatLevel current;
  current.width = 1;
  for (EdgeId e = 0; e < graph_.NumEdges(); ++e) current.data.push_back(e);
  result.peak_state_bytes = current.Bytes();

  std::vector<uint32_t> extensions;
  for (uint32_t depth = 1; depth < target_edges; ++depth) {
    FlatLevel next;
    next.width = depth + 1;
    for (size_t row = 0; row < current.NumRows(); ++row) {
      Subgraph subgraph = RebuildEdgeWord(graph_, current.Row(row));
      strategy.ComputeExtensions(graph_, subgraph, ctx, &extensions, nullptr);
      for (const uint32_t extension : extensions) {
        // Cheap structural pruning only (Arabesque-style): vertex budget.
        subgraph.PushEdgeInduced(graph_, extension);
        const bool feasible = subgraph.NumVertices() <= target_vertices;
        subgraph.Pop();
        if (feasible) next.Append(current.Row(row), extension);
      }
    }
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, Replicated(current.Bytes() + next.Bytes(), options_));
    if (result.peak_state_bytes > options_.memory_budget_bytes) {
      result.out_of_memory = true;
      result.seconds = timer.ElapsedSeconds();
      return result;
    }
    result.seconds +=
        next.NumRows() * options_.shuffle_micros_per_embedding * 1e-6;
    current = std::move(next);
  }

  for (size_t row = 0; row < current.NumRows(); ++row) {
    const Subgraph subgraph = RebuildEdgeWord(graph_, current.Row(row));
    const Pattern& canonical =
        cache.Canonicalize(subgraph.QuickPattern(graph_)).pattern;
    if (canonical == canonical_query) ++result.count;
  }
  result.seconds += timer.ElapsedSeconds();
  return result;
}

BfsResult BfsEngine::Fsm(uint32_t min_support, uint32_t max_edges) {
  WallTimer timer;
  BfsResult result;
  EdgeInducedStrategy strategy;
  ExtensionContext ctx;
  CanonicalPatternCache cache;

  FlatLevel current;
  current.width = 1;
  for (EdgeId e = 0; e < graph_.NumEdges(); ++e) current.data.push_back(e);

  std::vector<uint32_t> extensions;
  for (uint32_t level = 1; level <= max_edges; ++level) {
    // Aggregate supports of the current level.
    std::unordered_map<Pattern, DomainSupport, PatternHash> supports;
    for (size_t row = 0; row < current.NumRows(); ++row) {
      const Subgraph subgraph = RebuildEdgeWord(graph_, current.Row(row));
      const CanonicalResult& canonical =
          cache.Canonicalize(subgraph.QuickPattern(graph_));
      auto [it, inserted] = supports.try_emplace(
          canonical.pattern, DomainSupport(min_support, graph_.NumVertices()));
      it->second.AddEmbedding(subgraph, canonical);
    }
    uint64_t support_bytes = 0;
    std::unordered_map<Pattern, uint64_t, PatternHash> frequent;
    for (const auto& [pattern, support] : supports) {
      support_bytes += support.ApproxBytes();
      if (support.HasEnoughSupport()) {
        frequent.emplace(pattern, support.Support());
      }
    }
    result.peak_state_bytes = std::max(
        result.peak_state_bytes,
        Replicated(current.Bytes(), options_) + support_bytes);
    if (result.peak_state_bytes > options_.memory_budget_bytes) {
      result.out_of_memory = true;
      result.seconds = timer.ElapsedSeconds();
      return result;
    }
    for (const auto& [pattern, support] : frequent) {
      result.pattern_counts.emplace(pattern, support);
    }
    if (frequent.empty() || level == max_edges) break;

    // Keep only embeddings of frequent patterns, then expand one edge.
    FlatLevel next;
    next.width = level + 1;
    for (size_t row = 0; row < current.NumRows(); ++row) {
      Subgraph subgraph = RebuildEdgeWord(graph_, current.Row(row));
      const CanonicalResult& canonical =
          cache.Canonicalize(subgraph.QuickPattern(graph_));
      if (!frequent.count(canonical.pattern)) continue;
      strategy.ComputeExtensions(graph_, subgraph, ctx, &extensions, nullptr);
      for (const uint32_t extension : extensions) {
        next.Append(current.Row(row), extension);
      }
    }
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, Replicated(current.Bytes() + next.Bytes(), options_));
    if (result.peak_state_bytes > options_.memory_budget_bytes) {
      result.out_of_memory = true;
      result.seconds = timer.ElapsedSeconds();
      return result;
    }
    result.seconds +=
        next.NumRows() * options_.shuffle_micros_per_embedding * 1e-6;
    current = std::move(next);
  }
  result.count = result.pattern_counts.size();
  result.seconds += timer.ElapsedSeconds();
  return result;
}

}  // namespace baselines
}  // namespace fractal
