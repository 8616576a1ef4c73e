#include "graph/graph.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace fractal {

double Graph::Density() const {
  const double v = NumVertices();
  if (v < 2) return 0.0;
  return 2.0 * NumEdges() / (v * (v - 1.0));
}

std::optional<EdgeId> Graph::EdgeBetween(VertexId u, VertexId v) const {
  FRACTAL_DCHECK(u < NumVertices());
  FRACTAL_DCHECK(v < NumVertices());
  if (u == v) return std::nullopt;
  // Search from the lower-degree endpoint.
  if (Degree(v) < Degree(u)) std::swap(u, v);
  const auto neighbors = Neighbors(u);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), v);
  if (it == neighbors.end() || *it != v) return std::nullopt;
  const size_t index = static_cast<size_t>(it - neighbors.begin());
  return IncidentEdges(u)[index];
}

std::span<const uint32_t> Graph::VertexKeywords(VertexId v) const {
  FRACTAL_DCHECK(v < NumVertices());
  if (!has_keywords_) return {};
  return {vertex_keyword_data_.data() + vertex_keyword_offsets_[v],
          vertex_keyword_data_.data() + vertex_keyword_offsets_[v + 1]};
}

std::span<const uint32_t> Graph::EdgeKeywords(EdgeId e) const {
  FRACTAL_DCHECK(e < NumEdges());
  if (!has_keywords_) return {};
  return {edge_keyword_data_.data() + edge_keyword_offsets_[e],
          edge_keyword_data_.data() + edge_keyword_offsets_[e + 1]};
}

std::string Graph::DebugString() const {
  return StrFormat("Graph(|V|=%u, |E|=%u, |L|=%u, density=%.2e%s)",
                   NumVertices(), NumEdges(), NumLabels(), Density(),
                   has_keywords_ ? ", keywords" : "");
}

VertexId GraphBuilder::AddVertex(Label label) {
  vertex_labels_.push_back(label);
  pending_adj_.emplace_back();
  vertex_keywords_.emplace_back();
  inactive_.push_back(0);
  return static_cast<VertexId>(vertex_labels_.size() - 1);
}

void GraphBuilder::MarkVertexInactive(VertexId v) {
  FRACTAL_CHECK(v < NumVertices());
  inactive_[v] = 1;
  any_inactive_ = true;
}

bool GraphBuilder::HasEdge(VertexId u, VertexId v) const {
  FRACTAL_DCHECK(u < NumVertices());
  FRACTAL_DCHECK(v < NumVertices());
  const bool u_smaller = pending_adj_[u].size() <= pending_adj_[v].size();
  const auto& adj = pending_adj_[u_smaller ? u : v];
  const VertexId other = u_smaller ? v : u;
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), other,
      [](const std::pair<VertexId, EdgeId>& entry, VertexId needle) {
        return entry.first < needle;
      });
  return it != adj.end() && it->first == other;
}

EdgeId GraphBuilder::AddEdge(VertexId u, VertexId v, Label label) {
  FRACTAL_CHECK(u < NumVertices()) << "edge endpoint out of range";
  FRACTAL_CHECK(v < NumVertices()) << "edge endpoint out of range";
  FRACTAL_CHECK(u != v) << "self-loops are not allowed (Definition 1)";
  FRACTAL_CHECK(!HasEdge(u, v)) << "duplicate edge (" << u << "," << v << ")";
  EdgeEndpoints endpoints;
  endpoints.src = std::min(u, v);
  endpoints.dst = std::max(u, v);
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(endpoints);
  edge_labels_.push_back(label);
  edge_keywords_.emplace_back();
  // Sorted insertion keeps HasEdge (and the duplicate CHECK above) at
  // O(log deg) for the whole build.
  const auto insert_sorted = [this](VertexId at, VertexId neighbor,
                                    EdgeId edge) {
    auto& adj = pending_adj_[at];
    const auto it = std::lower_bound(
        adj.begin(), adj.end(), std::make_pair(neighbor, EdgeId{0}),
        [](const std::pair<VertexId, EdgeId>& a,
           const std::pair<VertexId, EdgeId>& b) { return a.first < b.first; });
    adj.insert(it, {neighbor, edge});
  };
  insert_sorted(u, v, id);
  insert_sorted(v, u, id);
  return id;
}

void GraphBuilder::SetVertexKeywords(VertexId v,
                                     std::vector<uint32_t> keywords) {
  FRACTAL_CHECK(v < NumVertices());
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  vertex_keywords_[v] = std::move(keywords);
  has_keywords_ = true;
}

void GraphBuilder::SetEdgeKeywords(EdgeId e, std::vector<uint32_t> keywords) {
  FRACTAL_CHECK(e < NumEdges());
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  edge_keywords_[e] = std::move(keywords);
  has_keywords_ = true;
}

Graph GraphBuilder::Build() && {
  Graph graph;
  const uint32_t num_vertices = NumVertices();
  graph.vertex_labels_ = std::move(vertex_labels_);
  graph.edges_ = std::move(edges_);
  graph.edge_labels_ = std::move(edge_labels_);

  graph.adj_offsets_.assign(num_vertices + 1, 0);
  for (uint32_t v = 0; v < num_vertices; ++v) {
    graph.adj_offsets_[v + 1] =
        graph.adj_offsets_[v] + static_cast<uint32_t>(pending_adj_[v].size());
  }
  graph.adj_neighbors_.resize(graph.adj_offsets_[num_vertices]);
  graph.adj_edge_ids_.resize(graph.adj_offsets_[num_vertices]);
  for (uint32_t v = 0; v < num_vertices; ++v) {
    // Pending lists are maintained sorted by AddEdge; no per-vertex sort.
    uint32_t offset = graph.adj_offsets_[v];
    for (const auto& [neighbor, edge] : pending_adj_[v]) {
      graph.adj_neighbors_[offset] = neighbor;
      graph.adj_edge_ids_[offset] = edge;
      ++offset;
    }
  }

  // Degree-thresholded adjacency bitmaps for O(1) IsAdjacent against hubs.
  graph.hub_degree_threshold_ =
      std::max<uint32_t>(64, num_vertices / 64);
  graph.hub_words_ = (static_cast<size_t>(num_vertices) + 63) / 64;
  uint32_t num_hubs = 0;
  for (uint32_t v = 0; v < num_vertices; ++v) {
    if (graph.Degree(v) >= graph.hub_degree_threshold_) ++num_hubs;
  }
  graph.num_hubs_ = num_hubs;
  if (num_hubs > 0) {
    graph.hub_slot_.assign(num_vertices, UINT32_MAX);
    graph.hub_bits_.assign(static_cast<size_t>(num_hubs) * graph.hub_words_,
                           0);
    uint32_t slot = 0;
    for (uint32_t v = 0; v < num_vertices; ++v) {
      if (graph.Degree(v) < graph.hub_degree_threshold_) continue;
      graph.hub_slot_[v] = slot;
      uint64_t* row = graph.hub_bits_.data() +
                      static_cast<size_t>(slot) * graph.hub_words_;
      for (const VertexId neighbor : graph.Neighbors(v)) {
        row[neighbor >> 6] |= uint64_t{1} << (neighbor & 63);
      }
      ++slot;
    }
  }

  const std::vector<Label>& edge_labels = graph.edge_labels_;
  if (!edge_labels.empty() &&
      std::all_of(edge_labels.begin(), edge_labels.end(),
                  [&](Label label) { return label == edge_labels[0]; })) {
    graph.uniform_edge_label_ = edge_labels[0];
  }

  // Count distinct labels across vertices and edges.
  std::unordered_set<Label> labels(graph.vertex_labels_.begin(),
                                   graph.vertex_labels_.end());
  labels.insert(graph.edge_labels_.begin(), graph.edge_labels_.end());
  graph.num_labels_ = static_cast<uint32_t>(labels.size());

  graph.num_active_vertices_ = num_vertices;
  if (any_inactive_) {
    for (uint32_t v = 0; v < num_vertices; ++v) {
      FRACTAL_CHECK(!inactive_[v] || graph.Degree(v) == 0)
          << "inactive vertex " << v << " still has incident edges";
    }
    graph.vertex_active_.resize(num_vertices);
    uint32_t active = 0;
    for (uint32_t v = 0; v < num_vertices; ++v) {
      graph.vertex_active_[v] = inactive_[v] ? 0 : 1;
      active += graph.vertex_active_[v];
    }
    graph.num_active_vertices_ = active;
  }

  if (has_keywords_) {
    graph.has_keywords_ = true;
    uint32_t max_keyword = 0;
    graph.vertex_keyword_offsets_.assign(num_vertices + 1, 0);
    for (uint32_t v = 0; v < num_vertices; ++v) {
      graph.vertex_keyword_offsets_[v + 1] =
          graph.vertex_keyword_offsets_[v] +
          static_cast<uint32_t>(vertex_keywords_[v].size());
    }
    graph.vertex_keyword_data_.reserve(
        graph.vertex_keyword_offsets_[num_vertices]);
    for (uint32_t v = 0; v < num_vertices; ++v) {
      for (const uint32_t k : vertex_keywords_[v]) {
        graph.vertex_keyword_data_.push_back(k);
        max_keyword = std::max(max_keyword, k + 1);
      }
    }
    const uint32_t num_edges = graph.NumEdges();
    graph.edge_keyword_offsets_.assign(num_edges + 1, 0);
    for (uint32_t e = 0; e < num_edges; ++e) {
      graph.edge_keyword_offsets_[e + 1] =
          graph.edge_keyword_offsets_[e] +
          static_cast<uint32_t>(edge_keywords_[e].size());
    }
    graph.edge_keyword_data_.reserve(graph.edge_keyword_offsets_[num_edges]);
    for (uint32_t e = 0; e < num_edges; ++e) {
      for (const uint32_t k : edge_keywords_[e]) {
        graph.edge_keyword_data_.push_back(k);
        max_keyword = std::max(max_keyword, k + 1);
      }
    }
    graph.keyword_vocabulary_size_ = max_keyword;
  }
  return graph;
}

}  // namespace fractal
