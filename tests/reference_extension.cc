#include "tests/reference_extension.h"

#include <algorithm>

namespace fractal {
namespace {

// Seed-style adjacency test: binary search from the lower-degree endpoint.
// Deliberately not Graph::IsAdjacent — the reference path must not benefit
// from the hub bitmaps (see file comment in reference_extension.h).
bool Adjacent(const Graph& graph, VertexId u, VertexId v) {
  return graph.EdgeBetween(u, v).has_value();
}

/// Arabesque canonical check for vertex words: candidate u extends the word
/// canonically iff u > word[0] and u > word[i] for every position i after
/// u's first attachment point. Returns false when u is not connected at all.
bool CanonicalVertexExtension(const Graph& graph,
                              std::span<const VertexId> word, VertexId u) {
  if (u < word[0]) return false;
  bool found_neighbor = false;
  for (const VertexId w : word) {
    if (!found_neighbor) {
      if (Adjacent(graph, w, u)) found_neighbor = true;
    } else if (u < w) {
      return false;
    }
  }
  return found_neighbor;
}

/// First position in the vertex word adjacent to u, or word size if none.
uint32_t FirstAttachment(const Graph& graph, std::span<const VertexId> word,
                         VertexId u) {
  for (uint32_t i = 0; i < word.size(); ++i) {
    if (Adjacent(graph, word[i], u)) return i;
  }
  return static_cast<uint32_t>(word.size());
}

/// Whether edges a and b share an endpoint.
bool EdgesTouch(const Graph& graph, EdgeId a, EdgeId b) {
  const EdgeEndpoints& ea = graph.Endpoints(a);
  const EdgeEndpoints& eb = graph.Endpoints(b);
  return ea.src == eb.src || ea.src == eb.dst || ea.dst == eb.src ||
         ea.dst == eb.dst;
}

/// Linear membership scan (the pre-bitset Subgraph::ContainsVertex).
bool WordContainsVertex(std::span<const VertexId> word, VertexId v) {
  return std::find(word.begin(), word.end(), v) != word.end();
}
bool WordContainsEdge(std::span<const EdgeId> word, EdgeId e) {
  return std::find(word.begin(), word.end(), e) != word.end();
}

}  // namespace

void SearchedRows(const ExtensionStrategy& strategy, const Graph& graph,
                  const Subgraph& subgraph,
                  std::span<const uint32_t> candidates,
                  std::vector<EdgeId>* rows) {
  if (rows == nullptr) return;
  rows->clear();
  std::vector<EdgeId> row;
  for (const uint32_t candidate : candidates) {
    strategy.SearchRow(graph, subgraph, candidate, &row);
    rows->insert(rows->end(), row.begin(), row.end());
  }
}

void SearchWordRowByEdgeBetween(const Graph& graph,
                                std::span<const VertexId> word, VertexId v,
                                std::vector<EdgeId>* row) {
  row->clear();
  for (const VertexId w : word) {
    row->push_back(graph.EdgeBetween(w, v).value_or(kNoEdge));
  }
}

void ReferenceVertexInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    std::vector<uint32_t>* out, std::vector<EdgeId>* rows) const {
  Scan(graph, subgraph, ctx, out);
  SearchedRows(*this, graph, subgraph, *out, rows);
}

void ReferenceVertexInducedStrategy::Scan(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    std::vector<uint32_t>* out) const {
  out->clear();
  if (subgraph.Empty()) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v)) out->push_back(v);
    }
    return;
  }
  const auto word = subgraph.Vertices();
  // Emit each candidate exactly once: from its first attachment position.
  for (uint32_t position = 0; position < word.size(); ++position) {
    for (const VertexId u : graph.Neighbors(word[position])) {
      ++ctx.extension_tests;
      if (WordContainsVertex(word, u)) continue;
      if (FirstAttachment(graph, word, u) != position) continue;
      if (!CanonicalVertexExtension(graph, word, u)) continue;
      out->push_back(u);
    }
  }
}

void ReferenceVertexInducedStrategy::Apply(const Graph& graph,
                                           uint32_t extension,
                                           std::span<const EdgeId> /*row*/,
                                           Subgraph* subgraph) const {
  subgraph->PushVertexInduced(graph, extension);
}

void ReferenceVertexInducedStrategy::SearchRow(
    const Graph& graph, const Subgraph& subgraph, uint32_t extension,
    std::vector<EdgeId>* row) const {
  SearchWordRowByEdgeBetween(graph, subgraph.Vertices(), extension, row);
}

void ReferenceEdgeInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    std::vector<uint32_t>* out, std::vector<EdgeId>* rows) const {
  Scan(graph, subgraph, ctx, out);
  SearchedRows(*this, graph, subgraph, *out, rows);
}

void ReferenceEdgeInducedStrategy::Scan(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    std::vector<uint32_t>* out) const {
  out->clear();
  if (subgraph.Empty()) {
    for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
      ++ctx.extension_tests;
      out->push_back(e);
    }
    return;
  }
  const auto word = subgraph.Edges();
  // Candidates: edges incident to any subgraph vertex. Emit a candidate
  // only while scanning its first touching word position; then apply the
  // canonical word check (the edge analog of the vertex rule).
  for (uint32_t position = 0; position < word.size(); ++position) {
    const EdgeEndpoints& base = graph.Endpoints(word[position]);
    for (const VertexId endpoint : {base.src, base.dst}) {
      for (const EdgeId candidate : graph.IncidentEdges(endpoint)) {
        ++ctx.extension_tests;
        if (candidate < word[0]) continue;
        if (WordContainsEdge(word, candidate)) continue;
        // First touching position must be `position` (dedup across the two
        // endpoint scans is handled below: a candidate touching base.src is
        // also seen from base.dst only if it touches both, in which case we
        // keep the src scan occurrence).
        uint32_t first_touch = UINT32_MAX;
        for (uint32_t i = 0; i <= position; ++i) {
          if (EdgesTouch(graph, word[i], candidate)) {
            first_touch = i;
            break;
          }
        }
        if (first_touch != position) continue;
        if (endpoint == base.dst &&
            EdgesTouch(graph, word[position], candidate) && [&] {
              const EdgeEndpoints& ec = graph.Endpoints(candidate);
              return ec.src == base.src || ec.dst == base.src;
            }()) {
          continue;  // already emitted from the src endpoint scan
        }
        // Canonical word check: candidate must exceed every word element
        // after its first touching position.
        bool canonical = true;
        for (uint32_t i = position + 1; i < word.size(); ++i) {
          if (candidate < word[i]) {
            canonical = false;
            break;
          }
        }
        if (canonical) out->push_back(candidate);
      }
    }
  }
}

void ReferenceEdgeInducedStrategy::Apply(const Graph& graph,
                                         uint32_t extension,
                                         std::span<const EdgeId> /*row*/,
                                         Subgraph* subgraph) const {
  subgraph->PushEdgeInduced(graph, extension);
}

void ReferenceEdgeInducedStrategy::SearchRow(
    const Graph& /*graph*/, const Subgraph& /*subgraph*/,
    uint32_t /*extension*/, std::vector<EdgeId>* row) const {
  row->clear();
}

void ReferenceKClistStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    std::vector<uint32_t>* out, std::vector<EdgeId>* rows) const {
  Scan(graph, subgraph, ctx, out);
  SearchedRows(*this, graph, subgraph, *out, rows);
}

void ReferenceKClistStrategy::Scan(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    std::vector<uint32_t>* out) const {
  out->clear();
  if (subgraph.Empty()) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v)) out->push_back(v);
    }
    return;
  }
  const auto word = subgraph.Vertices();
  const VertexId last = word.back();
  // Pivot on the smallest-degree clique vertex; candidates must be > last
  // (increasing order gives each clique once) and adjacent to all.
  uint32_t pivot = 0;
  for (uint32_t i = 1; i < word.size(); ++i) {
    if (graph.Degree(word[i]) < graph.Degree(word[pivot])) pivot = i;
  }
  const auto neighbors = graph.Neighbors(word[pivot]);
  const auto begin = std::upper_bound(neighbors.begin(), neighbors.end(), last);
  for (auto it = begin; it != neighbors.end(); ++it) {
    const VertexId u = *it;
    bool ok = true;
    for (uint32_t i = 0; i < word.size(); ++i) {
      if (i == pivot) continue;
      ++ctx.extension_tests;
      if (!Adjacent(graph, word[i], u)) {
        ok = false;
        break;
      }
    }
    if (word.size() == 1) ++ctx.extension_tests;
    if (ok) out->push_back(u);
  }
}

void ReferenceKClistStrategy::Apply(const Graph& graph, uint32_t extension,
                                    std::span<const EdgeId> /*row*/,
                                    Subgraph* subgraph) const {
  subgraph->PushVertexInduced(graph, extension);
}

void ReferenceKClistStrategy::SearchRow(const Graph& graph,
                                        const Subgraph& subgraph,
                                        uint32_t extension,
                                        std::vector<EdgeId>* row) const {
  SearchWordRowByEdgeBetween(graph, subgraph.Vertices(), extension, row);
}

}  // namespace fractal
